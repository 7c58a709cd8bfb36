package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro"
)

// collKind names one collective a collmix step issues.
type collKind string

const (
	collAllreduce    collKind = "allreduce"    // 8 x int64 = 64 B
	collBcast        collKind = "bcast"        // 64 B
	collBarrier      collKind = "barrier"      //
	collAllreduce64K collKind = "allreduce64k" // 8192 x int64 = 64 KiB
	collAlltoall     collKind = "alltoall"     // 64 B per peer
)

const smallBytes = 64

// collMix is the benchmark-registered program behind collective_scale:
// one collective per Step, taken from Plan, each result checked on every
// rank. Fields are unexported on purpose: the program is launched without
// a checkpointer, so nothing is ever serialized.
type collMix struct {
	plan  []collKind
	value int64 // every rank's allreduce contribution (seeded)
	seed  int64
	stamp bool // rank 0 stamps wall time at every Step entry (traced runs)

	step   int
	bad    int // output-check failures seen by this rank
	send   []byte
	recv   []byte
	stamps []time.Time
}

func (p *collMix) Setup(env *repro.Env) error {
	p.send = make([]byte, smallBytes)
	p.recv = make([]byte, smallBytes)
	return nil
}

// skew is a seeded per-(step, rank) compute delay of up to 2 virtual µs:
// the OS-noise model of the Figure 5 applications at collective scale. It
// is what makes the virtual clock depend on the seed on a one-node world,
// which has no wire jitter.
func (p *collMix) skew(rank int) time.Duration {
	x := uint64(p.seed)*0x9e3779b97f4a7c15 ^ uint64(p.step)*0xbf58476d1ce4e5b9 ^ uint64(rank)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return time.Duration(x % 2000)
}

func fillInt64(b []byte, v int64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(v))
	}
}

func int64At(b []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }

func (p *collMix) Step(env *repro.Env) (bool, error) {
	me, n := env.Rank(), env.Size()
	if p.stamp && me == 0 {
		p.stamps = append(p.stamps, time.Now())
	}
	env.Compute(p.skew(me))
	kind := p.plan[p.step]
	var err error
	switch kind {
	case collAllreduce:
		fillInt64(p.send, p.value)
		if err = env.T.Allreduce(p.send, p.recv, smallBytes/8, env.TypeInt64, env.OpSum, env.CommWorld); err == nil {
			if int64At(p.recv, 0) != int64(n)*p.value || int64At(p.recv, smallBytes/8-1) != int64(n)*p.value {
				p.bad++
			}
		}
	case collAllreduce64K:
		const elems = 8192
		send, recv := make([]byte, elems*8), make([]byte, elems*8)
		fillInt64(send, p.value)
		if err = env.T.Allreduce(send, recv, elems, env.TypeInt64, env.OpSum, env.CommWorld); err == nil {
			probe := int(uint64(p.seed+int64(me)) % elems)
			for _, i := range []int{0, probe, elems - 1} {
				if int64At(recv, i) != int64(n)*p.value {
					p.bad++
				}
			}
		}
	case collBcast:
		want := byte(p.seed + int64(p.step))
		for i := range p.send {
			p.send[i] = 0
			if me == 0 {
				p.send[i] = want
			}
		}
		if err = env.T.Bcast(p.send, smallBytes, env.TypeByte, 0, env.CommWorld); err == nil {
			if p.send[0] != want || p.send[smallBytes-1] != want {
				p.bad++
			}
		}
	case collBarrier:
		err = env.T.Barrier(env.CommWorld)
	case collAlltoall:
		send, recv := make([]byte, n*smallBytes), make([]byte, n*smallBytes)
		for peer := 0; peer < n; peer++ {
			send[peer*smallBytes] = byte(me*7 + peer*13 + int(p.seed))
		}
		if err = env.T.Alltoall(send, smallBytes, env.TypeByte, recv, smallBytes, env.TypeByte, env.CommWorld); err == nil {
			for peer := 0; peer < n; peer++ {
				if recv[peer*smallBytes] != byte(peer*7+me*13+int(p.seed)) {
					p.bad++
				}
			}
		}
	default:
		err = fmt.Errorf("collmix: unknown collective %q", kind)
	}
	if err != nil {
		return false, err
	}
	p.step++
	return p.step >= len(p.plan), nil
}

// localCall is the probe program behind the <layer>.local_call_ns
// metrics: rank 0 times calls that never leave the rank — CommRank,
// CommSize, TypeSize through env.T — so the number is the binding, shim
// and wrapper call path alone.
type localCall struct {
	iters int
	perNS float64 // wall nanoseconds per call, measured on rank 0
}

func (p *localCall) Setup(env *repro.Env) error { return nil }

func (p *localCall) Step(env *repro.Env) (bool, error) {
	start := time.Now()
	for i := 0; i < p.iters; i++ {
		if _, err := env.T.CommRank(env.CommWorld); err != nil {
			return false, err
		}
		if _, err := env.T.CommSize(env.CommWorld); err != nil {
			return false, err
		}
		if _, err := env.T.TypeSize(env.TypeInt64); err != nil {
			return false, err
		}
	}
	p.perNS = float64(time.Since(start)) / float64(3*p.iters)
	return true, nil
}

const (
	progCollMix   = "bench.collmix"
	progLocalCall = "bench.localcall"
)

func init() {
	repro.RegisterProgram(progCollMix, func() repro.Program { return &collMix{} })
	repro.RegisterProgram(progLocalCall, func() repro.Program { return &localCall{iters: 1} })
}
