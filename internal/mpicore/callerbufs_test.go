package mpicore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/stdabi"
	"repro/internal/types"
)

// collPath is one way to call the wrapped collectives: the wrappers as
// shipped, or the pack path they replaced for hole-free datatypes.
type collPath struct {
	bcast     func(p *mpicore.Proc, buf []byte, count int, dt *mpicore.Type, root int, c *mpicore.Comm) int
	allreduce func(p *mpicore.Proc, send, recv []byte, count int, dt *mpicore.Type, o *mpicore.Op, c *mpicore.Comm) int
	allgather func(p *mpicore.Proc, send []byte, scount int, stype *mpicore.Type, recv []byte, rcount int, rtype *mpicore.Type, c *mpicore.Comm) int
	alltoall  func(p *mpicore.Proc, send []byte, scount int, stype *mpicore.Type, recv []byte, rcount int, rtype *mpicore.Type, c *mpicore.Comm) int
}

var (
	wrapperPath = collPath{(*mpicore.Proc).Bcast, (*mpicore.Proc).Allreduce, (*mpicore.Proc).Allgather, (*mpicore.Proc).Alltoall}
	packPath    = collPath{(*mpicore.Proc).PackedBcast, (*mpicore.Proc).PackedAllreduce, (*mpicore.Proc).PackedAllgather, (*mpicore.Proc).PackedAlltoall}
)

// callRecord is what one collective call left on one rank: its code, a
// digest of both buffers (the output, and the input it must not write)
// and the rank's virtual clock.
type callRecord struct {
	call  string
	code  int
	bytes uint64
	clock simnet.Time
}

// digest hashes the buffers, each length-prefixed.
func digest(bufs ...[]byte) uint64 {
	h := sha256.New()
	for _, b := range bufs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// seeded fills b with bytes drawn from seed, eight at a time.
func seeded(b []byte, seed uint64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	var word [8]byte
	for i := 0; i < len(b); i += 8 {
		s = s*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(word[:], s)
		copy(b[i:], word[:])
	}
}

// collProgram runs Allreduce, Bcast (rotating and fixed roots), Allgather
// and Alltoall at each size, with predefined and derived hole-free types,
// then the short-buffer and holey-type calls that must take the pack path,
// and records every call on this rank, timed on its clock.
func collProgram(p *mpicore.Proc, clock *simnet.Clock, cp collPath, sizes []int) ([]callRecord, error) {
	c := p.CommWorld
	n, me := c.Size(), c.MyPos
	bt, i32 := p.Predef(types.KindByte), p.Predef(types.KindInt32)
	sum := p.PredefOp(ops.OpSum)
	pair, code := p.TypeContiguous(2, i32) // 8 bytes, no holes
	if code == 0 {
		code = p.TypeCommit(pair)
	}
	vec, vcode := p.TypeVector(2, 1, 2, i32) // 8 bytes over a 12-byte extent
	if vcode == 0 {
		vcode = p.TypeCommit(vec)
	}
	if code != 0 || vcode != 0 {
		return nil, fmt.Errorf("derived types: %d, %d", code, vcode)
	}
	var recs []callRecord
	seed := uint64(me+1) << 32
	record := func(call string, code int, send, recv []byte) {
		recs = append(recs, callRecord{call, code, digest(send, recv), clock.Now()})
	}
	fresh := func(size int) []byte {
		b := make([]byte, size)
		seed++
		seeded(b, seed)
		return b
	}
	for _, sz := range sizes {
		for it := 0; it < 2; it++ {
			count := max(1, sz/4)
			send, recv := fresh(4*count), fresh(4*count+3)
			record(fmt.Sprintf("allreduce %dB #%d", sz, it), cp.allreduce(p, send, recv, count, i32, sum, c), send, recv)

			for _, root := range []int{it % n, n - 1} { // rotating, then fixed
				buf := fresh(sz + 1)
				record(fmt.Sprintf("bcast %dB root %d #%d", sz, root, it), cp.bcast(p, buf, sz, bt, root, c), nil, buf)
			}

			pairs := max(1, sz/8)
			send, recv = fresh(8*pairs), fresh(n*8*pairs+5)
			record(fmt.Sprintf("allgather %dB #%d", sz, it), cp.allgather(p, send, pairs, pair, recv, pairs, pair, c), send, recv)

			send, recv = fresh(n*sz+2), fresh(n*sz+2)
			record(fmt.Sprintf("alltoall %dB #%d", sz, it), cp.alltoall(p, send, sz, bt, recv, sz, bt, c), send, recv)
		}

		// A buffer one byte short, and a type with holes, stage through
		// scratch on both paths and must fail or succeed alike.
		count := max(1, sz/4)
		send, recv := fresh(4*count), fresh(4*count-1)
		record(fmt.Sprintf("allreduce %dB short", sz), cp.allreduce(p, send, recv, count, i32, sum, c), send, recv)
		buf := fresh(sz)
		if me != 0 {
			buf = buf[:sz-1]
		}
		record(fmt.Sprintf("bcast %dB short leaves", sz), cp.bcast(p, buf, sz, bt, 0, c), nil, buf)
		send, recv = fresh(n*sz), fresh(n*sz-1)
		record(fmt.Sprintf("alltoall %dB short", sz), cp.alltoall(p, send, sz, bt, recv, sz, bt, c), send, recv)
		vecs := max(1, sz/8)
		send, recv = fresh(n*12*vecs), fresh(n*12*vecs)
		record(fmt.Sprintf("alltoall %dB vector", sz), cp.alltoall(p, send, vecs, vec, recv, vecs, vec, c), send, recv)
	}
	return recs, nil
}

// TestCallerBufsMatchPackPath is the differential test of the wrappers'
// caller-buffer path against the pack path they replaced (packpath_test.go):
// on every implementation's policy, on a power-of-two and an odd world,
// at sizes on both sides of the policy's EagerMax and across its
// algorithm switches, every call leaves the same bytes in both buffers,
// returns the same code and leaves every rank's virtual clock where the
// pack path leaves it.
func TestCallerBufsMatchPackPath(t *testing.T) {
	for _, im := range []*mpicore.Impl{mpich.Impl, openmpi.Impl, stdabi.Impl} {
		eager := im.Policy().EagerMax
		sizes := []int{1, 200, eager - 4, eager + 4, 40000}
		for _, n := range []int{4, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", im.Dialect.Name, n), func(t *testing.T) {
				run := func(cp collPath) [][]callRecord {
					w := fabrictest.World(t, n)
					recs := make([][]callRecord, n)
					fabrictest.Run(t, w, func(r int) error {
						var err error
						recs[r], err = collProgram(mpicore.NewProc(w, r, abi.ConstsOf(im.Dialect), im.Dialect.Codes, im.Policy()), w.Endpoint(r).Clock(), cp, sizes)
						return err
					})
					return recs
				}
				got, want := run(wrapperPath), run(packPath)
				failed := 0
				for r := range want {
					if len(got[r]) != len(want[r]) {
						t.Fatalf("rank %d: %d calls, pack path %d", r, len(got[r]), len(want[r]))
					}
					for i := range want[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("rank %d: %+v, pack path %+v", r, got[r][i], want[r][i])
						}
						if want[r][i].code != im.Dialect.Codes.Success {
							failed++
						}
					}
				}
				if failed == 0 {
					t.Fatal("no call failed: the short-buffer calls did not reach their error path")
				}
			})
		}
	}
}
