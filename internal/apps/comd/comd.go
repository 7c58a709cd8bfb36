// Package comd reproduces the communication and compute signature of the
// CoMD molecular-dynamics proxy application, the first real-world workload
// in the paper's Figure 5: short-range Lennard-Jones dynamics with a
// spatially decomposed particle set, per-step halo exchange of boundary
// particles with neighbor ranks, velocity-Verlet integration, and a global
// energy reduction.
//
// The decomposition is 1-D over a 3-D periodic box (the paper's runs use
// 48 ranks on a modest problem, where the halo pattern, message sizes in
// the tens of kilobytes, and one allreduce per step are what the MPI stack
// sees).
//
// In the README's layer diagram CoMD is the applications row: compiled
// once against internal/abi, oblivious to every layer below.
package comd

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"repro/internal/abi"
	"repro/internal/core"
)

// Particle is one atom's dynamic state; its fields are exported so that
// checkpoint images carry them.
type Particle struct {
	X, Y, Z    float64
	Vx, Vy, Vz float64
}

// CoMD is the per-rank program state.
type CoMD struct {
	// Parameters.
	ParticlesPerRank int
	Steps            int
	BoxSide          float64 // periodic box edge length (per-rank slab depth in X)
	Cutoff           float64
	Dt               float64
	// ComputeNsPerPair models the force kernel's virtual cost per
	// interacting pair examined; the kernel also really executes.
	ComputeNsPerPair float64
	// Seed feeds the OS-noise model (per-step compute jitter).
	Seed int64

	// State.
	Iter       int
	Atoms      []Particle
	KineticE   float64
	PotentialE float64

	buf stepBuffers
}

// New returns the paper-scale configuration.
func New() *CoMD {
	return &CoMD{
		ParticlesPerRank: 384,
		Steps:            300,
		BoxSide:          6.0,
		Cutoff:           1.6,
		Dt:               0.0005,
		ComputeNsPerPair: 18,
	}
}

// Setup seeds the rank's slab with a jittered lattice, deterministic per
// rank.
func (c *CoMD) Setup(env *abi.Env) error {
	if c.ParticlesPerRank <= 0 {
		return fmt.Errorf("comd: ParticlesPerRank must be positive")
	}
	// The force kernel's strips are a fraction of a cutoff wide and span
	// three box sides.
	if !(c.Cutoff > 0) || math.IsInf(c.Cutoff, 0) {
		return fmt.Errorf("comd: Cutoff must be positive and finite, not %v", c.Cutoff)
	}
	if !(c.BoxSide > 0) || math.IsInf(c.BoxSide, 0) {
		return fmt.Errorf("comd: BoxSide must be positive and finite, not %v", c.BoxSide)
	}
	c.Atoms = cachedLattice(c.Atoms, c.ParticlesPerRank, c.BoxSide, env.Rank())
	return nil
}

// lattices holds the lattices of the last (n, side) a Setup asked for,
// one per rank: a rank's lattice depends on (n, side, rank) alone, and
// seeding its random source costs more than a copy of it. It holds one
// (n, side), so its memory stays bounded; a Setup on another replaces
// it. A published lattice is never written again, so a Setup copies from
// it outside the lock.
var lattices struct {
	sync.Mutex
	n      int
	side   float64
	byRank map[int][]Particle
}

// cachedLattice copies lattice(n, side, rank) into dst's storage, or into
// new storage when dst's capacity is short, computing the lattice only when
// the cache lacks it.
func cachedLattice(dst []Particle, n int, side float64, rank int) []Particle {
	lattices.Lock()
	if lattices.byRank == nil || lattices.n != n || lattices.side != side {
		lattices.n, lattices.side, lattices.byRank = n, side, make(map[int][]Particle)
	}
	atoms, ok := lattices.byRank[rank]
	if !ok {
		atoms = lattice(n, side, rank)
		lattices.byRank[rank] = atoms
	}
	lattices.Unlock()
	return append(dst[:0], atoms...)
}

// lattice returns n atoms on a jittered cubic lattice filling a box of the
// given side, with small random velocities, deterministic per rank.
func lattice(n int, side float64, rank int) []Particle {
	rng := rand.New(rand.NewSource(int64(rank) + 7))
	atoms := make([]Particle, n)
	cells := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := side / float64(cells)
	for i := range atoms {
		ix, iy, iz := i%cells, (i/cells)%cells, i/(cells*cells)
		atoms[i] = Particle{
			X:  (float64(ix) + 0.1*rng.Float64()) * spacing,
			Y:  (float64(iy) + 0.1*rng.Float64()) * spacing,
			Z:  (float64(iz) + 0.1*rng.Float64()) * spacing,
			Vx: rng.NormFloat64() * 0.05,
			Vy: rng.NormFloat64() * 0.05,
			Vz: rng.NormFloat64() * 0.05,
		}
	}
	return atoms
}

// ljForce accumulates the Lennard-Jones force on atom a from a neighbor
// position, returning the pair potential energy contribution.
func ljForce(a *Particle, fx, fy, fz *float64, nx, ny, nz, cutoff2 float64) float64 {
	dx, dy, dz := a.X-nx, a.Y-ny, a.Z-nz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 > cutoff2 || r2 < 1e-9 {
		return 0
	}
	inv2 := 1.0 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * inv2 * inv6 * (2*inv6 - 1)
	*fx += f * dx
	*fy += f * dy
	*fz += f * dz
	return 4 * inv6 * (inv6 - 1)
}

// stripWidth is the width of a strip in cutoffs. Two atoms in reach are
// at most one cutoff, 1/0.5625 ≈ 1.78 strips, apart along each axis, so
// every atom an atom in strip k reaches lies in strips k-2..k+2 of that
// axis.
const stripWidth = 0.5625

// maxStrips caps an axis's strip count when the cutoff is tiny against
// the box. Strip indices clamp into range, and clamping only merges strips
// at the ends, so every pair in reach still shares a window.
const maxStrips = 1024

// axis is one axis of the strip index: where its strips start, how many
// there are and where its windows sit in strips.windows.
type axis struct {
	lo   float64
	n    int // strip count
	base int // strip k's window is windows[base+k*words : base+(k+1)*words]
}

// strips bins a step's positions into strips along X, Y and Z. X spans
// [-side, 2*side), which the local slab and both halos cover; Y and Z span
// the box, [0, side). Each strip keeps a window: a bitset of the position
// indices in it and in the two strips to either side. An atom's candidates
// are the AND of its three windows. All three axes' windows share one
// buffer, reused from step to step.
type strips struct {
	inv     float64 // strips per unit length: 1 / (stripWidth*cutoff)
	words   int     // uint64 words per bitset
	axes    [3]axis
	windows []uint64
	visited int // candidate pairs the last forces call examined
}

// of returns x's strip on axis a, clamped into [0, a.n).
func (s *strips) of(a *axis, x float64) int {
	f := (x - a.lo) * s.inv
	switch {
	case !(f > 0): // NaN included; positions are finite (wrap) in a step
		return 0
	case f >= float64(a.n-1):
		return a.n - 1
	}
	return int(f)
}

// window returns the window of x's strip on axis a.
func (s *strips) window(a *axis, x float64) []uint64 {
	at := a.base + s.of(a, x)*s.words
	return s.windows[at : at+s.words]
}

// bin indexes the atoms at pos (x, y, z triples): each position's bit goes
// into its strip's set on every axis, then each set widens in place into
// its window.
func (s *strips) bin(pos []float64, cutoff, side float64) {
	s.inv = 1 / (stripWidth * cutoff)
	s.words = (len(pos)/3 + 63) / 64
	size := 0
	for d := range s.axes {
		a := &s.axes[d]
		lo, span := 0.0, side
		if d == 0 {
			lo, span = -side, 3*side
		}
		a.lo, a.n = lo, maxStrips
		if f := span * s.inv; f < maxStrips-1 {
			a.n = int(f) + 1
		}
		a.base = size
		size += a.n * s.words
	}
	if cap(s.windows) < size {
		s.windows = make([]uint64, size)
	}
	s.windows = s.windows[:size]
	clear(s.windows)
	for j := 0; j < len(pos)/3; j++ {
		word, bit := j/64, uint64(1)<<(j%64)
		for d := range s.axes {
			a := &s.axes[d]
			s.windows[a.base+s.of(a, pos[3*j+d])*s.words+word] |= bit
		}
	}
	for d := range s.axes {
		a := &s.axes[d]
		for w := 0; w < s.words; w++ {
			col := s.windows[a.base+w : a.base+a.n*s.words]
			// Strip k's window ORs the sets of strips k-2..k+2: the two
			// below it were overwritten already, so they ride along.
			var below2, below1 uint64
			for k := 0; k < a.n; k++ {
				set := col[k*s.words]
				win := below2 | below1 | set
				if k+1 < a.n {
					win |= col[(k+1)*s.words]
				}
				if k+2 < a.n {
					win |= col[(k+2)*s.words]
				}
				col[k*s.words] = win
				below2, below1 = below1, set
			}
		}
	}
}

// forces is the force loop of a step: the Lennard-Jones force on every
// atom from the other atoms at pos and from the halo atoms after them,
// then a velocity-Verlet update (unit mass) with positions wrapped into
// the box. pos holds the atoms' own positions first, in order, then the
// halo's; it must be finite. Only the atoms that share a window with each
// atom on all three axes are visited, in ascending index order, so every
// non-zero term lands in the same order an all-pairs loop adds it. pairs
// is what an all-pairs loop examines: the virtual cost model charges by
// it.
func (s *strips) forces(atoms []Particle, pos []float64, cutoff, side, dt float64) (potential float64, pairs int) {
	s.bin(pos, cutoff, side)
	cutoff2 := cutoff * cutoff
	visited := 0
	for i := range atoms {
		a := &atoms[i]
		var fx, fy, fz float64
		p := pos[3*i : 3*i+3]
		wx := s.window(&s.axes[0], p[0])
		wy := s.window(&s.axes[1], p[1])[:len(wx)]
		wz := s.window(&s.axes[2], p[2])[:len(wx)]
		for w := range wx {
			for word := wx[w] & wy[w] & wz[w]; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				if j == i {
					continue
				}
				q := pos[3*j : 3*j+3]
				potential += ljForce(a, &fx, &fy, &fz, q[0], q[1], q[2], cutoff2)
				visited++
			}
		}
		a.Vx += fx * dt
		a.Vy += fy * dt
		a.Vz += fz * dt
		a.X = wrap(a.X+a.Vx*dt, side)
		a.Y = wrap(a.Y+a.Vy*dt, side)
		a.Z = wrap(a.Z+a.Vz*dt, side)
	}
	s.visited = visited
	n := len(atoms)
	return potential, n*(n-1) + n*(len(pos)/3-n)
}

// stepBuffers is what Step reuses from step to step. Its fields are
// unexported, so checkpoint images skip them.
type stepBuffers struct {
	pos               []float64 // local positions, then the left and right halos
	send, left, right []byte
	reqs              [2]abi.Handle
	sums              [32]byte // allreduce input, then output
	strips            strips
}

// Reset returns c to New's state for the next job (core.Job.Release),
// keeping the storage of its step buffers, which Step reuses when the
// next job's slab has the same size, and of its atoms, which Setup or a
// restore fills.
func (c *CoMD) Reset() {
	b := &c.buf
	core.Poison(b.pos)
	core.Poison(b.send)
	core.Poison(b.left)
	core.Poison(b.right)
	core.Poison(b.strips.windows)
	atoms := c.Atoms[:0]
	// A Particle is float64s and nothing else.
	core.Poison(unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(atoms))), cap(atoms)*int(unsafe.Sizeof(Particle{})/8)))
	kept := stepBuffers{pos: b.pos, send: b.send, left: b.left, right: b.right, strips: strips{windows: b.strips.windows}}
	*c = *New()
	c.buf, c.Atoms = kept, atoms
}

// Step is one velocity-Verlet iteration: exchange halo positions with both
// X-neighbors, compute LJ forces against local + halo atoms, integrate,
// and reduce the total energy.
func (c *CoMD) Step(env *abi.Env) (bool, error) {
	n, me := env.Size(), env.Rank()
	left, right := (me-1+n)%n, (me+1)%n
	b := &c.buf
	local := 3 * len(c.Atoms)
	halo := 0
	if n > 1 {
		halo = 2 * local // the slab is thin: every atom is a boundary atom
	}
	if len(b.pos) != local+halo {
		b.pos = make([]float64, local+halo)
		b.send, b.left, b.right = make([]byte, 8*local), make([]byte, 8*local), make([]byte, 8*local)
	}
	for i, a := range c.Atoms {
		b.pos[3*i], b.pos[3*i+1], b.pos[3*i+2] = a.X, a.Y, a.Z
	}

	if n > 1 {
		abi.PutFloat64s(b.send, b.pos[:local])
		var err error
		if b.reqs[0], err = env.T.Irecv(b.left, len(b.left), env.TypeByte, left, 21, env.CommWorld); err != nil {
			return false, err
		}
		if b.reqs[1], err = env.T.Irecv(b.right, len(b.right), env.TypeByte, right, 22, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Send(b.send, len(b.send), env.TypeByte, right, 21, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Send(b.send, len(b.send), env.TypeByte, left, 22, env.CommWorld); err != nil {
			return false, err
		}
		if err := env.T.Waitall(b.reqs[:], nil); err != nil {
			return false, err
		}
		// Neighbor slabs sit at X-offsets of one box side: rank r-1's box
		// is the slab at [-side, 0), rank r+1's at [side, 2*side). Without
		// the offsets, halo atoms would alias local coordinates and the
		// potential would blow up.
		haloLeft, haloRight := b.pos[local:2*local], b.pos[2*local:]
		abi.GetFloat64s(b.left, haloLeft)
		abi.GetFloat64s(b.right, haloRight)
		for j := 0; j < local; j += 3 {
			haloLeft[j] -= c.BoxSide
			haloRight[j] += c.BoxSide
		}
	}

	potential, pairs := b.strips.forces(c.Atoms, b.pos, c.Cutoff, c.BoxSide, c.Dt)
	cost := float64(pairs) * c.ComputeNsPerPair
	cost *= 1 + 0.05*noise(c.Seed, int64(c.Iter), int64(me))
	env.Compute(time.Duration(cost))

	var kinetic float64
	for _, a := range c.Atoms {
		kinetic += 0.5 * (a.Vx*a.Vx + a.Vy*a.Vy + a.Vz*a.Vz)
	}
	in, out := b.sums[:16], b.sums[16:]
	abi.PutFloat64s(in, []float64{kinetic, potential / 2})
	if err := env.T.Allreduce(in, out, 2, env.TypeFloat64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	var sums [2]float64
	abi.GetFloat64s(out, sums[:])
	c.KineticE, c.PotentialE = sums[0], sums[1]

	c.Iter++
	return c.Iter >= c.Steps, nil
}

// noise returns a deterministic pseudo-random value in [0, 1) (see the
// wavempi twin).
func noise(seed, iter, rank int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9 ^ uint64(rank)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x%1000000) / 1000000
}

// wrap maps x into the box [0, side]: side itself only where x is a hair
// below 0. Less than one side out, it gives the bits the math.Mod path
// below would, without calling it: inside the box x itself, above it
// x - side (exact, by Sterbenz's lemma, as math.Mod is), and below it
// x + side (math.Mod returns x there).
func wrap(x, side float64) float64 {
	switch {
	case 0 <= x && x < side:
		return x
	case side <= x && x < 2*side:
		return x - side
	case -side < x && x < 0:
		return x + side
	case math.IsNaN(x) || math.IsInf(x, 0):
		return 0 // numerically destroyed atoms re-enter at the origin
	}
	x = math.Mod(x, side)
	if x < 0 {
		x += side
	}
	return x
}

func init() {
	core.RegisterProgram("app.comd", func() core.Program { return New() })
}

// ScaleSteps shrinks the run for quick harness configurations.
func (c *CoMD) ScaleSteps(f float64) {
	c.Steps = int(float64(c.Steps) * f)
	if c.Steps < 3 {
		c.Steps = 3
	}
	c.ParticlesPerRank = int(float64(c.ParticlesPerRank) * f * 2)
	if c.ParticlesPerRank < 32 {
		c.ParticlesPerRank = 32
	}
}

// SetSeed plants the run's OS-noise seed (harness hook).
func (c *CoMD) SetSeed(s int64) { c.Seed = s }
