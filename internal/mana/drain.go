package mana

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/abi"
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

// wireCounts is one rank's published send counters for one communicator
// (keyed by gid in the exchange payload; counts.go is the wire form).
type wireCounts struct {
	MyRank int // the sender's rank within that communicator
	SentTo map[int]uint64
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
	all := w.oob.Exchange(w.rank, encodeCounts(pub))
	if all == nil {
		return nil, fmt.Errorf("mana: world closed during counter exchange")
	}
	peers := make([]map[uint64]wireCounts, len(all))
	for i, raw := range all {
		if len(raw) == 0 {
			continue
		}
		var err error
		if peers[i], err = decodeCounts(raw); err != nil {
			return nil, fmt.Errorf("mana: decoding counters from rank %d: %w", i, err)
		}
	}
	// Drain the deficit on every communicator I belong to.
	for vid, info := range w.comms {
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
	blob := Blob{
		NextVid:  w.nextVid,
		Log:      w.log,
		Sent:     w.sent,
		Recvd:    w.recvd,
		Buffered: w.buffered,
	}
	out, err := gobBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("mana: encoding blob: %w", err)
	}
	return out, nil
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
	var blob Blob
	if err := gobValue(blobBytes, &blob); err != nil {
		return fmt.Errorf("mana: decoding blob: %w", err)
	}
	if err := w.replayLog(blob.Log); err != nil {
		return err
	}
	w.nextVid = blob.NextVid
	w.sent = blob.Sent
	w.recvd = blob.Recvd
	w.buffered = blob.Buffered
	if w.sent == nil {
		w.sent = make(map[abi.Handle]map[int]uint64)
	}
	if w.recvd == nil {
		w.recvd = make(map[abi.Handle]map[int]uint64)
	}
	if w.buffered == nil {
		w.buffered = make(map[abi.Handle][]Drained)
	}
	return nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobValue(raw []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(out)
}
