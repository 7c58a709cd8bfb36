package fabric

import "math/bits"

// bufPool is a world's one freelist of payload and scratch buffers,
// shared by all its endpoints: Send copies a payload into a buffer from
// it, the receiver hands the buffer back once it has consumed the bytes,
// and any rank's next Alloc may get it. Every rank of a world runs as a
// fiber under the scheduler's single execution token (sched.go), and only
// the token holder ever touches the pool, so it needs no lock, like
// mpicore's Proc.freeReqs. A buffer a broadcast moves from its root to a
// leaf is therefore as close to the root's next send as to anything else.
//
// Buffers are filed by capacity in power-of-two classes but are never
// rounded up: a miss allocates exactly n bytes, so a buffer that is never
// recycled (a dropped send, a payload a recovery path keeps) costs what
// it cost before there was a pool. A class therefore holds mixed
// capacities, and get probes its newest few entries for one that fits.
type bufPool struct {
	class    [bufClasses][][]byte
	retained int // bytes held, each buffer charged at least bufMinCharge
	limit    int // retention bound; see worldRetainBytes
}

const (
	// Class 0 holds capacities below 64 B; class k >= 1 holds
	// [32<<k, 64<<k). A capacity of 512 KiB or more is never pooled.
	bufClasses   = 14
	bufMinShift  = 6
	bufMinCharge = 1 << bufMinShift
	// bufProbe bounds get's search of a class, newest first. Steady-state
	// traffic repeats its sizes, so the newest entry nearly always fits.
	bufProbe = 4

	// worldRetainBytes bounds what one world's pool retains. It is a
	// bound per world, not per rank, because worlds run from 8 ranks to
	// 4096: it lets an 8-rank OSU sweep recycle every buffer it uses, and
	// the same bound on each of 4096 ranks would pin 64 GiB.
	worldRetainBytes = 16 << 20
)

func bufClass(capacity int) int {
	return max(0, bits.Len(uint(capacity))-bufMinShift)
}

// get returns a buffer of length n whose contents are arbitrary.
func (bp *bufPool) get(n int) []byte {
	if k := bufClass(n); k < bufClasses {
		list := bp.class[k]
		for i := len(list) - 1; i >= 0 && i >= len(list)-bufProbe; i-- {
			if b := list[i]; cap(b) >= n {
				last := len(list) - 1
				list[i], list[last] = list[last], nil
				bp.class[k] = list[:last]
				bp.retained -= max(cap(b), bufMinCharge)
				return b[:n]
			}
		}
	}
	return make([]byte, n)
}

// put files b for reuse, or drops it (for the garbage collector) when it
// is empty, oversize, or would take the pool past its bound. A race build
// poisons it first either way.
func (bp *bufPool) put(b []byte) {
	if poisonOnRelease {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	k := bufClass(cap(b))
	charge := max(cap(b), bufMinCharge)
	if cap(b) == 0 || k >= bufClasses || bp.retained+charge > bp.limit {
		return
	}
	bp.retained += charge
	bp.class[k] = append(bp.class[k], b)
}

// poisonByte is what a race build overwrites a released buffer with
// (poisonOnRelease): a stale slice then reads 0xDB bytes, which no
// collective's checksum survives, instead of the next message's data.
const poisonByte = 0xDB

// Alloc returns a buffer of length n from the world's freelist. Its
// contents are ARBITRARY: the caller must write every byte before reading
// it. Only the fiber holding the world's execution token may call Alloc
// and Release, which a rank's own fiber always does.
func (ep *Endpoint) Alloc(n int) []byte { return ep.world.pool.get(n) }

// Release hands a buffer the caller exclusively owns — a delivered
// payload it has consumed, or an Alloc'd scratch buffer it is done with —
// to the world's freelist. Neither b nor any slice of it may be used
// afterwards; the next Alloc or Send on any endpoint of the world may hand
// it out again. Releasing is optional: a buffer never released is
// ordinary garbage.
func (ep *Endpoint) Release(b []byte) { ep.world.pool.put(b) }
