package mana

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The drain counter exchange payload. Every rank sends one to every rank
// at every checkpoint, so it is a flat run of uvarints rather than a gob
// stream (whose per-message type descriptors and decoder set-up dwarfed
// the handful of counters inside):
//
//	nComms, then per communicator in ascending gid order:
//	  gid, myRank, nPeers, then per peer in ascending rank order:
//	    peer, count
//
// Ranks are communicator ranks of real peers (PROC_NULL sends are never
// counted), hence non-negative.

// encodeCounts renders pub in the canonical (sorted) wire form.
func encodeCounts(pub map[uint64]wireCounts) []byte {
	gids := make([]uint64, 0, len(pub))
	for gid := range pub {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	out := binary.AppendUvarint(make([]byte, 0, 64), uint64(len(gids)))
	var peers []int
	for _, gid := range gids {
		wc := pub[gid]
		peers = peers[:0]
		for peer := range wc.SentTo {
			peers = append(peers, peer)
		}
		slices.Sort(peers)
		out = binary.AppendUvarint(out, gid)
		out = binary.AppendUvarint(out, uint64(wc.MyRank))
		out = binary.AppendUvarint(out, uint64(len(peers)))
		for _, peer := range peers {
			out = binary.AppendUvarint(out, uint64(peer))
			out = binary.AppendUvarint(out, wc.SentTo[peer])
		}
	}
	return out
}

// decodeCounts parses a peer's payload. Every count is bounded by the
// bytes left before anything is allocated from it, keys must ascend
// strictly (no duplicates), and trailing bytes are an error.
func decodeCounts(raw []byte) (map[uint64]wireCounts, error) {
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, fmt.Errorf("truncated or overlong %s", what)
		}
		raw = raw[n:]
		return v, nil
	}
	// count reads an element count whose elements take at least min bytes.
	count := func(what string, min int) (int, error) {
		v, err := next(what)
		if err == nil && v > uint64(len(raw)/min) {
			err = fmt.Errorf("%s %d exceeds the %d bytes left", what, v, len(raw))
		}
		return int(v), err
	}
	rank := func(what string) (int, error) {
		v, err := next(what)
		if err == nil && v > math.MaxInt32 {
			err = fmt.Errorf("%s %d out of range", what, v)
		}
		return int(v), err
	}
	nComms, err := count("communicator count", 3)
	if err != nil {
		return nil, err
	}
	pub := make(map[uint64]wireCounts, nComms)
	var lastGid uint64
	for c := 0; c < nComms; c++ {
		gid, err := next("gid")
		if err != nil {
			return nil, err
		}
		if c > 0 && gid <= lastGid {
			return nil, fmt.Errorf("gid %d after %d: not ascending", gid, lastGid)
		}
		lastGid = gid
		wc := wireCounts{}
		if wc.MyRank, err = rank("communicator rank"); err != nil {
			return nil, err
		}
		nPeers, err := count("peer count", 2)
		if err != nil {
			return nil, err
		}
		wc.SentTo = make(map[int]uint64, nPeers)
		lastPeer := -1
		for p := 0; p < nPeers; p++ {
			peer, err := rank("peer rank")
			if err != nil {
				return nil, err
			}
			if peer <= lastPeer {
				return nil, fmt.Errorf("peer %d after %d: not ascending", peer, lastPeer)
			}
			lastPeer = peer
			if wc.SentTo[peer], err = next("send count"); err != nil {
				return nil, err
			}
		}
		pub[gid] = wc
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(raw))
	}
	return pub, nil
}
