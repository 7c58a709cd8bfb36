package mana

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/abi"
	"repro/internal/canon"
)

// Blob is the wrapper's serialized upper-half MPI state: everything needed
// to rebind virtual ids against a fresh lower half and to replay drained
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

// wireCounts is one rank's published send counters for one communicator;
// the exchange payload is a canon-encoded map of them keyed by gid.
type wireCounts struct {
	MyRank int // the sender's rank within that communicator
	SentTo map[int]uint64
}

// checkCounts vets a peer's decoded exchange payload. Ranks are
// communicator ranks of real peers (PROC_NULL sends are never counted), so
// a negative one, or one past any world, is refused.
func checkCounts(pub map[uint64]wireCounts) error {
	for gid, wc := range pub {
		if wc.MyRank < 0 || wc.MyRank > math.MaxInt32 {
			return fmt.Errorf("communicator %#x: rank %d out of range", gid, wc.MyRank)
		}
		for peer := range wc.SentTo {
			if peer < 0 || peer > math.MaxInt32 {
				return fmt.Errorf("communicator %#x: peer rank %d out of range", gid, peer)
			}
		}
	}
	return nil
}

// PreCheckpoint implements the dmtcp.Plugin drain phase: MANA's
// counter-exchange algorithm. Every rank publishes, per communicator, how
// many point-to-point messages it has sent to each peer; each receiver
// compares against its receive counters and pulls the difference out of
// the lower half into upper-half buffers. After PreCheckpoint the network
// is empty, so the lower half can be discarded wholesale — the property
// the split-process checkpoint depends on.
func (w *Wrapper) PreCheckpoint() ([]byte, error) {
	if n := len(w.reqs); n != 0 {
		return nil, abi.Errorf(abi.ErrPending, "mana",
			"checkpoint at unsafe point: %d outstanding requests", n)
	}
	// Publish send counters keyed by communicator gid.
	pub := make(map[uint64]wireCounts)
	for vid, counts := range w.sent {
		info := w.comms[vid]
		if info == nil {
			continue
		}
		pub[info.gid] = wireCounts{MyRank: info.myRank, SentTo: counts}
	}
	var payload bytes.Buffer
	if err := canon.Encode(&payload, pub); err != nil {
		return nil, fmt.Errorf("mana: encoding counters: %w", err)
	}
	all := w.oob.Exchange(w.rank, payload.Bytes())
	if all == nil {
		return nil, fmt.Errorf("mana: world closed during counter exchange")
	}
	peers := make([]map[uint64]wireCounts, len(all))
	for i, raw := range all {
		if len(raw) == 0 {
			continue
		}
		err := canon.Decode(raw, &peers[i])
		if err == nil {
			err = checkCounts(peers[i])
		}
		if err != nil {
			return nil, fmt.Errorf("mana: decoding counters from rank %d: %w", i, err)
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
		for worldRank, pcounts := range peers {
			entry, ok := pcounts[info.gid]
			if !ok {
				continue
			}
			sentToMe := entry.SentTo[info.myRank]
			got := w.recvd[vid][entry.MyRank]
			for k := got; k < sentToMe; k++ {
				if err := w.drainOne(vid, entry.MyRank); err != nil {
					return nil, fmt.Errorf("mana: draining msg %d of %d from comm rank %d (world %d): %w",
						k+1, sentToMe, entry.MyRank, worldRank, err)
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
	w.buffered[vid] = append(w.buffered[vid], Drained{
		Source: srcCommRank,
		Tag:    st.Tag,
		Data:   buf,
	})
	bump(w.recvd, vid, srcCommRank)
	return nil
}

// Resume implements the dmtcp.Plugin hook for checkpoints that continue
// running; MANA needs no work here (drained messages are served lazily).
func (w *Wrapper) Resume() error { return nil }

// Restore rebuilds a wrapper's upper-half state from a checkpoint blob
// against a fresh lower half: recipes are replayed to mint equivalent MPI
// objects (a collective operation — every rank restores concurrently), and
// counters plus drained messages are reinstated. The wrapper must be
// freshly constructed with NewWrapper over the new implementation stack.
func (w *Wrapper) Restore(blobBytes []byte) error {
	blob, err := DecodeBlob(blobBytes)
	if err != nil {
		return fmt.Errorf("mana: decoding blob: %w", err)
	}
	if err := w.replayLog(blob.Log); err != nil {
		return err
	}
	// canon decodes every map non-nil, so the counters take new entries.
	w.nextVid, w.sent, w.recvd, w.buffered = blob.NextVid, blob.Sent, blob.Recvd, blob.Buffered
	return nil
}

// DecodeBlob decodes the blob PreCheckpoint returned, which a rank image
// stores as its plugin section.
func DecodeBlob(raw []byte) (Blob, error) {
	var b Blob
	err := canon.Decode(raw, &b)
	return b, err
}
