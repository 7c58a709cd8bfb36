// Package ulfm is the representation-agnostic half of the User-Level
// Fault Mitigation subsystem: the failure/revocation/acknowledgement
// bookkeeping every simulated MPI implementation shares, factored out of
// the runtime the way internal/mpicore factors out the progress engine.
//
// ULFM (the MPI Forum's fault-tolerance working-group interface, shipped
// as MPIX_* by MPICH and Open MPI alike) is the *other* half of
// fault-tolerant MPI next to checkpoint/restart: instead of resuming an
// image, the survivors acknowledge the failure (MPIX_Comm_failure_ack),
// revoke the damaged communicator (MPIX_Comm_revoke), shrink it to a
// survivors-only one (MPIX_Comm_shrink), and agree on how to continue
// (MPIX_Comm_agree). The paper's ABI argument bites hardest exactly here:
// each implementation numbers the new MPIX error classes differently, so
// an application that survives a failure under one stack cannot even
// compare error codes under another without translation (compare
// FTHP-MPI, arXiv:2504.09989, and the MPI ABI standardization effort,
// arXiv:2308.11214).
//
// This package owns the pure state and wire payloads:
//
//   - Tracker: one rank's view of which world ranks have failed, which
//     communicator context ids are revoked, and which failures have been
//     acknowledged per communicator;
//   - Bitmap: the fixed-width failed-set exchanged by the fault-tolerant
//     agreement rounds (internal/mpicore's CommAgree/CommShrink);
//   - the control-plane payload codecs for the fabric's failure notice
//     and the runtime's revoke notice.
//
// The communicating half — sweeping the progress engine's queues,
// running the agreement rounds, deriving the shrunken context id — lives
// in internal/mpicore, which embeds a Tracker per rank. The ABI surfaces
// (internal/mpich, internal/openmpi, internal/stdabi) expose the five
// MPIX calls in their own constant vocabularies, and the shims
// (internal/mukautuva, internal/wi4mpi) translate the error classes in
// both directions.
//
// In the README's layer diagram ulfm is its own box beside the shared
// runtime: state only, embedded per rank by mpicore. It is the in-place
// counterpart to the checkpoint/restart recovery of Sections 3 and 5.3;
// docs/recovery.md compares both with the replication mode side by side.
package ulfm

import "hash/fnv"

// Control-plane tags carried by fabric.ProtoCtrl envelopes. They live
// below zero so they can never collide with application tags (validated
// non-negative) or collective-reserved tag blocks (always positive).
const (
	// CtrlFailure announces fail-stop rank deaths. The payload is
	// EncodeRanks of the dead world ranks; the fabric broadcasts it to
	// every surviving endpoint at kill time, which is what wakes peers
	// blocked on the dead ranks' traffic.
	CtrlFailure int32 = -100
	// CtrlRevoke announces a communicator revocation. The envelope's CID
	// names the revoked communicator; there is no payload.
	CtrlRevoke int32 = -101
)

// EncodeRanks packs a world-rank list into a control payload.
func EncodeRanks(ranks []int) []byte {
	out := make([]byte, 0, 4*len(ranks))
	for _, r := range ranks {
		u := uint32(r)
		out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return out
}

// DecodeRanks unpacks a control payload into a world-rank list. Trailing
// partial words (a malformed payload) are ignored.
func DecodeRanks(payload []byte) []int {
	n := len(payload) / 4
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		b := payload[i*4:]
		out = append(out, int(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24))
	}
	return out
}

// Bitmap is a fixed-width set of world ranks, the unit the agreement
// rounds exchange: every participant contributes its local failed set
// and folds in everyone else's, converging on a common view.
type Bitmap []byte

// NewBitmap returns an empty bitmap wide enough for n ranks.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+7)/8) }

// Set marks rank r.
func (b Bitmap) Set(r int) {
	if r >= 0 && r/8 < len(b) {
		b[r/8] |= 1 << (r % 8)
	}
}

// Has reports whether rank r is marked.
func (b Bitmap) Has(r int) bool {
	return r >= 0 && r/8 < len(b) && b[r/8]&(1<<(r%8)) != 0
}

// Or folds another bitmap in (union). Width mismatches fold the common
// prefix, so a malformed contribution can never widen the set.
func (b Bitmap) Or(other Bitmap) {
	for i := 0; i < len(b) && i < len(other); i++ {
		b[i] |= other[i]
	}
}

// Hash digests the bitmap into an ordinal perturbation: every member of
// a shrink agreement mixes it into the derived context id, so two
// shrinks of the same parent after different failures can never alias.
func (b Bitmap) Hash() uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// Tracker is one rank's ULFM state. It is owned by the rank's runtime
// goroutine (like the progress engine's queues) and is not
// concurrency-safe by itself. The zero Tracker is empty and ready: each
// map is made by its first write, so a rank that sees no failure,
// revocation or acknowledgement never makes one.
type Tracker struct {
	failed  map[int]bool
	revoked map[uint32]bool
	acked   map[uint32]map[int]bool
}

// NoteFailed records world-rank deaths, returning true when at least one
// was news (callers sweep the progress queues exactly once per novelty).
func (t *Tracker) NoteFailed(ranks ...int) bool {
	news := false
	for _, r := range ranks {
		if !t.failed[r] {
			if t.failed == nil {
				t.failed = make(map[int]bool)
			}
			t.failed[r] = true
			news = true
		}
	}
	return news
}

// Failed reports whether world rank r is known dead.
func (t *Tracker) Failed(r int) bool { return t.failed[r] }

// FailedBitmap renders the known-failed set over a world of n ranks.
func (t *Tracker) FailedBitmap(n int) Bitmap {
	b := NewBitmap(n)
	for r := range t.failed {
		b.Set(r)
	}
	return b
}

// Revoke marks a context id revoked, returning true when it was news.
func (t *Tracker) Revoke(cid uint32) bool {
	if t.revoked[cid] {
		return false
	}
	if t.revoked == nil {
		t.revoked = make(map[uint32]bool)
	}
	t.revoked[cid] = true
	return true
}

// Revoked reports whether a context id has been revoked.
func (t *Tracker) Revoked(cid uint32) bool { return t.revoked[cid] }

// Ack acknowledges, for the communicator identified by cid, every
// currently-known failure among the given member world ranks — the
// MPIX_Comm_failure_ack contract: acknowledged failures stop poisoning
// wildcard receives, and later failures start a fresh ack cycle.
func (t *Tracker) Ack(cid uint32, members []int) {
	set := t.acked[cid]
	if set == nil {
		if t.acked == nil {
			t.acked = make(map[uint32]map[int]bool)
		}
		set = make(map[int]bool)
		t.acked[cid] = set
	}
	for _, w := range members {
		if t.failed[w] {
			set[w] = true
		}
	}
}

// AckedRanks returns the acknowledged-failed members of cid, in the
// order given (the MPIX_Comm_failure_get_acked group order).
func (t *Tracker) AckedRanks(cid uint32, members []int) []int {
	set := t.acked[cid]
	var out []int
	for _, w := range members {
		if set[w] {
			out = append(out, w)
		}
	}
	return out
}

// HasUnacked reports whether any member world rank is dead but not yet
// acknowledged on cid — the condition under which wildcard-source
// receives must raise the proc-failed error instead of blocking forever.
func (t *Tracker) HasUnacked(cid uint32, members []int) bool {
	set := t.acked[cid]
	for _, w := range members {
		if t.failed[w] && !set[w] {
			return true
		}
	}
	return false
}

// Forget drops a freed communicator's revocation and ack state.
func (t *Tracker) Forget(cid uint32) {
	delete(t.revoked, cid)
	delete(t.acked, cid)
}
