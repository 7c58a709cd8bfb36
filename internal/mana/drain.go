package mana

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/abi"
	"repro/internal/canon"
)

// Blob is the wrapper's serialized upper-half MPI state: everything needed
// to rebuild virtual ids against a fresh lower half and to replay drained
// in-flight messages. It contains no implementation handles — only
// standard-ABI values and recipes — which is what makes a Mukautuva-backed
// image restartable under a different MPI implementation.
type Blob struct {
	NextVid  uint64
	Log      []Event
	Sent     map[abi.Handle]map[int]uint64
	Recvd    map[abi.Handle]map[int]uint64
	Buffered map[abi.Handle][]Drained
}

// counterRecord is the size of one record of the drain-counter exchange.
// A rank's payload is its send counters as fixed-width little-endian
// records, strictly ascending by (gid, destination):
//
//	gid u64 | sender's comm rank u32 | destination comm rank u32 | count u64
//
// so a receiver checks a peer's payload in one pass and finds the record
// naming itself by binary search, decoding nothing else. The payload is
// exchanged, never stored: the blob keeps its own encoding.
const counterRecord = 24

// encodeCounters lays out the send counters of every live communicator
// as records (gids are distinct per live communicator).
func encodeCounters(comms map[abi.Handle]*commInfo, sent map[abi.Handle]map[int]uint64) []byte {
	type commSent struct {
		gid    uint64
		myRank int
		sentTo map[int]uint64
	}
	live := make([]commSent, 0, len(sent))
	n := 0
	for vid, counts := range sent {
		if info := comms[vid]; info != nil {
			live = append(live, commSent{info.gid, info.myRank, counts})
			n += len(counts)
		}
	}
	slices.SortFunc(live, func(a, b commSent) int { return cmp.Compare(a.gid, b.gid) })
	out := make([]byte, 0, n*counterRecord)
	var dests []int
	le := binary.LittleEndian
	for _, c := range live {
		dests = dests[:0]
		for to := range c.sentTo {
			dests = append(dests, to)
		}
		slices.Sort(dests)
		for _, to := range dests {
			out = le.AppendUint64(out, c.gid)
			out = le.AppendUint32(out, uint32(c.myRank))
			out = le.AppendUint32(out, uint32(to))
			out = le.AppendUint64(out, c.sentTo[to])
		}
	}
	return out
}

// counterAt reads record i of a payload.
func counterAt(raw []byte, i int) (gid uint64, from, to uint32, count uint64) {
	r := raw[i*counterRecord : (i+1)*counterRecord]
	le := binary.LittleEndian
	return le.Uint64(r), le.Uint32(r[8:]), le.Uint32(r[12:]), le.Uint64(r[16:])
}

// checkCounters vets a peer's payload in one pass that allocates nothing
// unless it fails: whole records only, strictly ascending by (gid,
// destination), one sender rank per communicator, and every rank at most
// MaxInt32 (ranks are communicator ranks of real peers; PROC_NULL sends
// are never counted). An empty payload is valid: that peer sent nothing.
func checkCounters(raw []byte) error {
	if len(raw)%counterRecord != 0 {
		return fmt.Errorf("%d bytes is not a whole number of %d-byte records", len(raw), counterRecord)
	}
	for i := 0; i < len(raw)/counterRecord; i++ {
		gid, from, to, _ := counterAt(raw, i)
		if from > math.MaxInt32 || to > math.MaxInt32 {
			return fmt.Errorf("communicator %#x: rank %d -> %d out of range", gid, from, to)
		}
		if i == 0 {
			continue
		}
		pgid, pfrom, pto, _ := counterAt(raw, i-1)
		if gid < pgid || gid == pgid && to <= pto {
			return fmt.Errorf("record %d: (%#x, %d) does not ascend past (%#x, %d)", i, gid, to, pgid, pto)
		}
		if gid == pgid && from != pfrom {
			return fmt.Errorf("communicator %#x: records name sender ranks %d and %d", gid, pfrom, from)
		}
	}
	return nil
}

// findCounter finds the record of (gid, to) in a checked payload by binary
// search: the sender's rank on that communicator and how many messages it
// sent to rank to, or ok=false if it sent none there.
func findCounter(raw []byte, gid uint64, to int) (from int, count uint64, ok bool) {
	n := len(raw) / counterRecord
	i := sort.Search(n, func(i int) bool {
		g, _, t, _ := counterAt(raw, i)
		return g > gid || g == gid && int(t) >= to
	})
	if i == n {
		return 0, 0, false
	}
	g, f, t, c := counterAt(raw, i)
	if g != gid || int(t) != to {
		return 0, 0, false
	}
	return int(f), c, true
}

// PreCheckpoint implements the dmtcp.Plugin drain phase: MANA's
// counter-exchange algorithm. Every rank publishes, per communicator, how
// many point-to-point messages it has sent to each peer; each receiver
// compares against its receive counters and pulls the difference out of
// the lower half into upper-half buffers. After PreCheckpoint the network
// is empty, so the lower half can be discarded wholesale — the property
// the split-process checkpoint depends on.
func (w *Wrapper) PreCheckpoint() ([]byte, error) {
	if n := w.Outstanding(); n != 0 {
		return nil, abi.Errorf(abi.ErrPending, "mana",
			"checkpoint at unsafe point: %d outstanding requests", n)
	}
	// all is the exchange's shared snapshot: read it, never write it.
	all := w.oob.Exchange(w.rank, encodeCounters(w.comms, w.sent))
	if all == nil {
		return nil, fmt.Errorf("mana: world closed during counter exchange")
	}
	for i, raw := range all {
		if err := checkCounters(raw); err != nil {
			return nil, fmt.Errorf("mana: counters from rank %d: %w", i, err)
		}
	}
	// Drain the deficit on every communicator I belong to, in ascending
	// vid order: each drained receive advances the rank clock, so the
	// order is part of the image and of every virtual time after it.
	vids := make([]abi.Handle, 0, len(w.comms))
	for vid := range w.comms {
		vids = append(vids, vid)
	}
	slices.Sort(vids)
	for _, vid := range vids {
		info := w.comms[vid]
		for worldRank, raw := range all {
			from, sentToMe, ok := findCounter(raw, info.gid, info.myRank)
			if !ok {
				continue
			}
			got := w.recvd[vid][from]
			for k := got; k < sentToMe; k++ {
				if err := w.drainOne(vid, from); err != nil {
					return nil, fmt.Errorf("mana: draining msg %d of %d from comm rank %d (world %d): %w",
						k+1, sentToMe, from, worldRank, err)
				}
			}
		}
	}
	var out bytes.Buffer
	if err := canon.Encode(&out, Blob{w.nextVid, w.log, w.sent, w.recvd, w.buffered}); err != nil {
		return nil, fmt.Errorf("mana: encoding blob: %w", err)
	}
	return out.Bytes(), nil
}

// drainOne pulls the next pending message from a peer on one communicator
// into the upper-half buffer: probe for its envelope, then receive its
// packed bytes verbatim.
func (w *Wrapper) drainOne(vid abi.Handle, srcCommRank int) error {
	ic := w.In(vid)
	var st abi.Status
	if err := w.inner.Probe(srcCommRank, w.TagIn(abi.AnyTag), ic, &st); err != nil {
		return err
	}
	w.StatusBack(&st)
	buf := make([]byte, st.CountBytes)
	var rst abi.Status
	if err := w.inner.Recv(buf, len(buf), w.iByteType, srcCommRank, int(st.Tag), ic, &rst); err != nil {
		return err
	}
	if w.buffered == nil {
		w.buffered = make(map[abi.Handle][]Drained)
	}
	w.buffered[vid] = append(w.buffered[vid], Drained{
		Source: srcCommRank,
		Tag:    st.Tag,
		Data:   buf,
	})
	bump(&w.recvd, vid, srcCommRank)
	return nil
}

// Resume implements the dmtcp.Plugin hook for checkpoints that continue
// running; MANA needs no work here (drained messages are served lazily).
func (w *Wrapper) Resume() error { return nil }

// Restore rebuilds a wrapper's upper-half state from a checkpoint blob
// against a fresh lower half: the log is replayed through the calls that
// recorded it (collective — every rank restores concurrently), which
// rebuilds each MPI object under the vid it had and must rebuild the
// image's log event for event; counters plus drained messages are then
// reinstated. The wrapper must be freshly constructed with NewWrapper over
// the new implementation stack.
func (w *Wrapper) Restore(blobBytes []byte) error {
	blob, err := DecodeBlob(blobBytes)
	if err != nil {
		return fmt.Errorf("mana: decoding blob: %w", err)
	}
	if err := w.replayLog(blob.Log); err != nil {
		return err
	}
	if w.nextVid != blob.NextVid {
		return fmt.Errorf("mana: replay minted up to vid payload %#x, the image records %#x", w.nextVid, blob.NextVid)
	}
	w.sent, w.recvd, w.buffered = blob.Sent, blob.Recvd, blob.Buffered
	return nil
}

// DecodeBlob decodes the blob PreCheckpoint returned, which a rank image
// stores as its plugin section.
func DecodeBlob(raw []byte) (Blob, error) {
	var b Blob
	err := canon.Decode(raw, &b)
	return b, err
}
