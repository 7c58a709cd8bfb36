// Package abitest is the spy table of mpicore's stack transcript
// (TestStackTranscripts), the suite that checks what a translating layer
// (Mukautuva, Wi4MPI, MANA) hands the implementation beneath it. Only
// tests import it.
package abitest

import (
	"time"

	"repro/internal/abi"
	"repro/internal/simnet"
)

// SkewUndefined is the MPI_UNDEFINED a Spy presents upward. Every
// implementation here uses -32766, which would make a missing Undefined
// translation invisible.
const SkewUndefined = -7

// Spy sits between a translating layer and the implementation. It
// presents SkewUndefined upward, records the handles and split colours the
// layer above passes down, and times every call into the implementation,
// so the rest of a call's clock movement is the layers' translation
// charges.
type Spy struct {
	abi.FuncTable
	clock         *simnet.Clock
	realUndefined int
	// Inside is the clock time spent in the implementation.
	Inside time.Duration
	// Handles are the handles Barrier, GroupSize, TypeSize, OpFree and
	// Wait were given; Colors the colours CommSplit was given.
	Handles []H
	Colors  []int
}

// H shortens the spy's signatures.
type H = abi.Handle

// New spies on inner, timing calls on clock. The stack transcript puts a
// translating layer over the Spy by passing it to the layer's
// constructor (mukautuva.New, wi4mpi.New, mana.NewWrapper).
func New(inner abi.FuncTable, clock *simnet.Clock) *Spy {
	return &Spy{FuncTable: inner, clock: clock, realUndefined: inner.LookupInt(abi.IntUndefined)}
}

// in starts timing one call into the implementation; call the result
// when it returns.
func (s *Spy) in() func() {
	t0 := s.clock.Now()
	return func() { s.Inside += s.clock.Now().Sub(t0) }
}

func (s *Spy) back(v int) int {
	if v == s.realUndefined {
		return SkewUndefined
	}
	return v
}

func (s *Spy) LookupInt(sym abi.IntSym) int {
	if sym == abi.IntUndefined {
		return SkewUndefined
	}
	return s.FuncTable.LookupInt(sym)
}

func (s *Spy) CommSplit(c H, color, key int) (H, error) {
	defer s.in()()
	s.Colors = append(s.Colors, color)
	if color == SkewUndefined {
		color = s.realUndefined
	}
	return s.FuncTable.CommSplit(c, color, key)
}

func (s *Spy) GroupRank(g H) (int, error) {
	defer s.in()()
	r, err := s.FuncTable.GroupRank(g)
	return s.back(r), err
}

func (s *Spy) GroupTranslateRanks(g1 H, ranks []int, g2 H) ([]int, error) {
	defer s.in()()
	out, err := s.FuncTable.GroupTranslateRanks(g1, ranks, g2)
	for i := range out {
		out[i] = s.back(out[i])
	}
	return out, err
}

func (s *Spy) GetCount(st *abi.Status, dt H) (int, error) {
	defer s.in()()
	n, err := s.FuncTable.GetCount(st, dt)
	return s.back(n), err
}

func (s *Spy) Barrier(c H) error {
	defer s.in()()
	s.Handles = append(s.Handles, c)
	return s.FuncTable.Barrier(c)
}

func (s *Spy) GroupSize(g H) (int, error) {
	defer s.in()()
	s.Handles = append(s.Handles, g)
	return s.FuncTable.GroupSize(g)
}

func (s *Spy) TypeSize(dt H) (int, error) {
	defer s.in()()
	s.Handles = append(s.Handles, dt)
	return s.FuncTable.TypeSize(dt)
}

func (s *Spy) OpFree(op H) error {
	defer s.in()()
	s.Handles = append(s.Handles, op)
	return s.FuncTable.OpFree(op)
}

func (s *Spy) Wait(req H, st *abi.Status) error {
	defer s.in()()
	s.Handles = append(s.Handles, req)
	return s.FuncTable.Wait(req, st)
}

// The rest only time the call.

func (s *Spy) Send(buf []byte, n int, dt H, dest, tag int, c H) error {
	defer s.in()()
	return s.FuncTable.Send(buf, n, dt, dest, tag, c)
}

func (s *Spy) Recv(buf []byte, n int, dt H, src, tag int, c H, st *abi.Status) error {
	defer s.in()()
	return s.FuncTable.Recv(buf, n, dt, src, tag, c, st)
}

func (s *Spy) Isend(buf []byte, n int, dt H, dest, tag int, c H) (H, error) {
	defer s.in()()
	return s.FuncTable.Isend(buf, n, dt, dest, tag, c)
}

func (s *Spy) Irecv(buf []byte, n int, dt H, src, tag int, c H) (H, error) {
	defer s.in()()
	return s.FuncTable.Irecv(buf, n, dt, src, tag, c)
}

func (s *Spy) Test(req H, st *abi.Status) (bool, error) {
	defer s.in()()
	return s.FuncTable.Test(req, st)
}

func (s *Spy) Waitall(reqs []H, sts []abi.Status) error {
	defer s.in()()
	return s.FuncTable.Waitall(reqs, sts)
}

func (s *Spy) Sendrecv(sb []byte, sn int, stype H, dest, stag int, rb []byte, rn int, rtype H, src, rtag int, c H, st *abi.Status) error {
	defer s.in()()
	return s.FuncTable.Sendrecv(sb, sn, stype, dest, stag, rb, rn, rtype, src, rtag, c, st)
}

func (s *Spy) Probe(src, tag int, c H, st *abi.Status) error {
	defer s.in()()
	return s.FuncTable.Probe(src, tag, c, st)
}

func (s *Spy) Iprobe(src, tag int, c H, st *abi.Status) (bool, error) {
	defer s.in()()
	return s.FuncTable.Iprobe(src, tag, c, st)
}

func (s *Spy) Bcast(buf []byte, n int, dt H, root int, c H) error {
	defer s.in()()
	return s.FuncTable.Bcast(buf, n, dt, root, c)
}

func (s *Spy) Reduce(sb, rb []byte, n int, dt, op H, root int, c H) error {
	defer s.in()()
	return s.FuncTable.Reduce(sb, rb, n, dt, op, root, c)
}

func (s *Spy) Allreduce(sb, rb []byte, n int, dt, op H, c H) error {
	defer s.in()()
	return s.FuncTable.Allreduce(sb, rb, n, dt, op, c)
}

func (s *Spy) Gather(sb []byte, sn int, stype H, rb []byte, rn int, rtype H, root int, c H) error {
	defer s.in()()
	return s.FuncTable.Gather(sb, sn, stype, rb, rn, rtype, root, c)
}

func (s *Spy) Allgather(sb []byte, sn int, stype H, rb []byte, rn int, rtype H, c H) error {
	defer s.in()()
	return s.FuncTable.Allgather(sb, sn, stype, rb, rn, rtype, c)
}

func (s *Spy) Scatter(sb []byte, sn int, stype H, rb []byte, rn int, rtype H, root int, c H) error {
	defer s.in()()
	return s.FuncTable.Scatter(sb, sn, stype, rb, rn, rtype, root, c)
}

func (s *Spy) Alltoall(sb []byte, sn int, stype H, rb []byte, rn int, rtype H, c H) error {
	defer s.in()()
	return s.FuncTable.Alltoall(sb, sn, stype, rb, rn, rtype, c)
}

func (s *Spy) CommSize(c H) (int, error) { defer s.in()(); return s.FuncTable.CommSize(c) }

func (s *Spy) CommRank(c H) (int, error) { defer s.in()(); return s.FuncTable.CommRank(c) }

func (s *Spy) CommDup(c H) (H, error) { defer s.in()(); return s.FuncTable.CommDup(c) }

func (s *Spy) CommCreate(c, g H) (H, error) { defer s.in()(); return s.FuncTable.CommCreate(c, g) }

func (s *Spy) CommGroup(c H) (H, error) { defer s.in()(); return s.FuncTable.CommGroup(c) }

func (s *Spy) CommFree(c H) error { defer s.in()(); return s.FuncTable.CommFree(c) }

func (s *Spy) GroupIncl(g H, ranks []int) (H, error) {
	defer s.in()()
	return s.FuncTable.GroupIncl(g, ranks)
}

func (s *Spy) GroupExcl(g H, ranks []int) (H, error) {
	defer s.in()()
	return s.FuncTable.GroupExcl(g, ranks)
}

func (s *Spy) GroupFree(g H) error { defer s.in()(); return s.FuncTable.GroupFree(g) }

func (s *Spy) TypeContiguous(n int, inner H) (H, error) {
	defer s.in()()
	return s.FuncTable.TypeContiguous(n, inner)
}

func (s *Spy) TypeVector(n, blocklen, stride int, inner H) (H, error) {
	defer s.in()()
	return s.FuncTable.TypeVector(n, blocklen, stride, inner)
}

func (s *Spy) TypeIndexed(blocklens, displs []int, inner H) (H, error) {
	defer s.in()()
	return s.FuncTable.TypeIndexed(blocklens, displs, inner)
}

func (s *Spy) TypeCreateStruct(blocklens, displs []int, typs []H) (H, error) {
	defer s.in()()
	return s.FuncTable.TypeCreateStruct(blocklens, displs, typs)
}

func (s *Spy) TypeCommit(dt H) error { defer s.in()(); return s.FuncTable.TypeCommit(dt) }

func (s *Spy) TypeFree(dt H) error { defer s.in()(); return s.FuncTable.TypeFree(dt) }

func (s *Spy) TypeExtent(dt H) (int, error) { defer s.in()(); return s.FuncTable.TypeExtent(dt) }

func (s *Spy) CommRevoke(c H) error { defer s.in()(); return s.FuncTable.CommRevoke(c) }

func (s *Spy) CommShrink(c H) (H, error) { defer s.in()(); return s.FuncTable.CommShrink(c) }

func (s *Spy) CommAgree(c H, flag uint64) (uint64, error) {
	defer s.in()()
	return s.FuncTable.CommAgree(c, flag)
}

func (s *Spy) CommFailureAck(c H) error { defer s.in()(); return s.FuncTable.CommFailureAck(c) }

func (s *Spy) CommFailureGetAcked(c H) (H, error) {
	defer s.in()()
	return s.FuncTable.CommFailureGetAcked(c)
}

func (s *Spy) OpCreate(name string, commute bool) (H, error) {
	defer s.in()()
	return s.FuncTable.OpCreate(name, commute)
}

func (s *Spy) Abort(c H, code int) error { defer s.in()(); return s.FuncTable.Abort(c, code) }
