package fabric

// OOB is the out-of-band control plane: the analog of the TCP sockets that
// DMTCP's coordinator and MANA's drain protocol use alongside the MPI
// fabric. It offers two reusable barriers over all ranks: an all-to-all
// exchange ("phaser") for callers that carry payloads, and an any-flag
// reduction for callers that need the barrier plus one bit.
//
// OOB traffic is control-plane traffic; it does not consume virtual time.
// This mirrors the paper's setting, where checkpoint coordination happens on
// a side channel whose cost is not part of the measured MPI latencies.
// Like the rest of the world it belongs to the token holder (see sched):
// its callers are rank fibers.
type OOB struct {
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

func newOOB(n int, s *sched) *OOB {
	return &OOB{
		slots:     make([][]byte, n),
		published: make(map[uint64]*pubGen),
		sched:     s,
	}
}

func (o *OOB) close() {
	o.done = true
	o.sched.wakeAll()
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
	if o.flagSeen == len(o.slots) {
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
