package fabric

import "fmt"

// OOB is the out-of-band control plane: the analog of the TCP sockets that
// DMTCP's coordinator and MANA's drain protocol use alongside the MPI
// fabric. It provides per-rank typed message queues and two reusable
// barriers over all ranks: an all-to-all exchange ("phaser") for callers
// that carry payloads, and an any-flag reduction for callers that need the
// barrier plus one bit.
//
// OOB traffic is control-plane traffic; it does not consume virtual time.
// This mirrors the paper's setting, where checkpoint coordination happens on
// a side channel whose cost is not part of the measured MPI latencies.
// Like the rest of the world it belongs to the token holder (see sched):
// its callers are rank fibers.
type OOB struct {
	boxes []*mailboxAny
	sched *sched

	gen       uint64
	slots     [][]byte
	seen      int
	published map[uint64]*pubGen
	done      bool

	// AnyFlag's state: the OR of the current generation's deposits, their
	// count, the generation counter and the last completed generation's
	// result.
	flagAcc  bool
	flagSeen int
	flagGen  uint64
	flagRes  bool
}

// pubGen is a completed exchange generation awaiting pickup by its waiters.
type pubGen struct {
	data    [][]byte
	readers int
}

type anyMsg struct {
	src  int
	tag  string
	data any
}

type mailboxAny struct {
	queue  []anyMsg
	closed bool
	sched  *sched
	owner  int
}

func (m *mailboxAny) push(v anyMsg) {
	m.queue = append(m.queue, v)
	m.sched.wake(m.owner)
}

// popTag blocks until a message with the given tag is available and removes
// it, preserving the order of other messages. Returns ok=false if closed.
func (m *mailboxAny) popTag(tag string) (anyMsg, bool) {
	for {
		for i, v := range m.queue {
			if v.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return v, true
			}
		}
		if m.closed {
			return anyMsg{}, false
		}
		m.sched.park(m.owner)
	}
}

func (m *mailboxAny) close() {
	m.closed = true
	m.sched.wake(m.owner)
}

func newOOB(n int, s *sched) *OOB {
	o := &OOB{
		boxes:     make([]*mailboxAny, n),
		slots:     make([][]byte, n),
		published: make(map[uint64]*pubGen),
		sched:     s,
	}
	for i := range o.boxes {
		o.boxes[i] = &mailboxAny{sched: s, owner: i}
	}
	return o
}

func (o *OOB) close() {
	o.done = true
	o.sched.wakeAll()
	for _, b := range o.boxes {
		b.close()
	}
}

// Send delivers an arbitrary value to rank dst under the given tag.
//
//mpivet:allow deadexport -- test-facing: mpicore's replica tests order a shadow's death before its primary's with it
func (o *OOB) Send(src, dst int, tag string, v any) {
	if dst < 0 || dst >= len(o.boxes) {
		panic(fmt.Sprintf("fabric: oob send to rank %d out of range", dst))
	}
	o.boxes[dst].push(anyMsg{src: src, tag: tag, data: v})
}

// Recv blocks until a message with the given tag arrives for rank r.
// It returns the source rank and value; ok=false means the world closed.
//
//mpivet:allow deadexport -- test-facing: mpicore's replica tests order a shadow's death before its primary's with it
func (o *OOB) Recv(r int, tag string) (src int, v any, ok bool) {
	m, ok := o.boxes[r].popTag(tag)
	if !ok {
		return 0, nil, false
	}
	return m.src, m.data, true
}

// Exchange is an all-to-all barrier: every rank deposits a byte slice and
// blocks until all n ranks have deposited, then receives every deposit
// indexed by rank. The completing rank copies the deposits once into a
// snapshot that every rank of the generation shares: the returned slices
// are read-only to every caller, and a depositor may reuse its buffer as
// soon as Exchange returns. It is reusable: each generation has its own
// snapshot, so late wakers never observe deposits from the next one.
// Returns nil if the world is closed while waiting.
func (o *OOB) Exchange(rank int, data []byte) [][]byte {
	gen := o.gen
	o.slots[rank] = data
	o.seen++
	if o.seen == len(o.slots) {
		snap := cloneSlots(o.slots)
		clear(o.slots)
		if len(o.slots) > 1 {
			o.published[gen] = &pubGen{data: snap, readers: len(o.slots) - 1}
		}
		o.gen++
		o.seen = 0
		o.sched.wakeAll()
		return snap
	}
	for o.published[gen] == nil && !o.done {
		o.sched.park(rank)
	}
	// A published generation outranks closure: if the last depositor
	// completed the exchange and only then closed the world (a fault
	// firing right after a checkpoint barrier does exactly this), the
	// late wakers' data exists and they must receive it — returning nil
	// here would tear a barrier that did, in fact, complete, stranding a
	// finished checkpoint with half its images unwritten.
	pg := o.published[gen]
	if pg == nil {
		return nil
	}
	pg.readers--
	if pg.readers == 0 {
		delete(o.published, gen)
	}
	return pg.data
}

// AnyFlag is a barrier over all n ranks that also ORs one bit: every rank
// deposits flag and blocks until all have, then learns whether any rank's
// flag was set. It costs O(1) — one shared accumulator instead of
// Exchange's n-slot snapshot — and is the primitive for global
// conditions that need no payload (the safe-point vote, plain barriers).
// ok=false means the world closed while waiting; as with Exchange, a
// generation that completed outranks a closure that followed it.
//
// It is reusable back to back with one result word: flagRes is written
// only when a generation completes, and generation g+1 cannot complete
// before every rank has deposited into it — that is, before the latest
// waker of generation g has read g's result and returned.
func (o *OOB) AnyFlag(rank int, flag bool) (set, ok bool) {
	gen := o.flagGen
	o.flagAcc = o.flagAcc || flag
	o.flagSeen++
	if o.flagSeen == len(o.boxes) {
		o.flagRes = o.flagAcc
		o.flagAcc = false
		o.flagSeen = 0
		o.flagGen++
		o.sched.wakeAll()
		return o.flagRes, true
	}
	for o.flagGen == gen && !o.done {
		o.sched.park(rank)
	}
	if o.flagGen == gen {
		return false, false
	}
	return o.flagRes, true
}

// cloneSlots copies the deposits into one allocation. Each copy is capped
// at its own length, so an append to one never writes into the next.
func cloneSlots(slots [][]byte) [][]byte {
	total := 0
	for _, s := range slots {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	out := make([][]byte, len(slots))
	for i, s := range slots {
		if s == nil {
			continue
		}
		at := len(buf)
		buf = append(buf, s...)
		out[i] = buf[at:len(buf):len(buf)]
	}
	return out
}
