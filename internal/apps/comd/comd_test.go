package comd

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// allPairs is the oracle for strips.forces: the all-pairs force loop CoMD
// stepped with before the strip kernel, every local pair and every
// local-halo pair examined in index order.
func allPairs(atoms []Particle, pos []float64, cutoff, side, dt float64) (potential float64, pairs int) {
	local, halo := pos[:3*len(atoms)], pos[3*len(atoms):]
	cutoff2 := cutoff * cutoff
	for i := range atoms {
		a := &atoms[i]
		var fx, fy, fz float64
		for j := 0; j+2 < len(local); j += 3 {
			if j/3 == i {
				continue
			}
			potential += ljForce(a, &fx, &fy, &fz, local[j], local[j+1], local[j+2], cutoff2)
			pairs++
		}
		for j := 0; j+2 < len(halo); j += 3 {
			potential += ljForce(a, &fx, &fy, &fz, halo[j], halo[j+1], halo[j+2], cutoff2)
			pairs++
		}
		a.Vx += fx * dt
		a.Vy += fy * dt
		a.Vz += fz * dt
		a.X = wrap(a.X+a.Vx*dt, side)
		a.Y = wrap(a.Y+a.Vy*dt, side)
		a.Z = wrap(a.Z+a.Vz*dt, side)
	}
	return potential, pairs
}

// positions lays out what Step hands the kernel: the atoms' own positions,
// then each halo's, shifted one box side to the left and to the right.
func positions(atoms, left, right []Particle, side float64) []float64 {
	var pos []float64
	for _, set := range []struct {
		atoms []Particle
		dx    float64
	}{{atoms, 0}, {left, -side}, {right, side}} {
		for _, a := range set.atoms {
			pos = append(pos, a.X+set.dx, a.Y, a.Z)
		}
	}
	return pos
}

// checkAgainstAllPairs runs the strip kernel and the oracle on copies of
// atoms and requires the same bits in every velocity, position, the
// potential and the pair count: once as a step of dt, once from rest with
// a unit step, where each velocity is the force itself. It also holds the
// kernel to its reach: every candidate it examines shares a window of five
// 0.5625-cutoff strips with the atom at hand on each axis, so lies within
// 1.6875 cutoffs of it in X, Y and Z. A wider strip, or pruning on fewer
// axes, is still exact, but visits more.
func checkAgainstAllPairs(t testing.TB, atoms []Particle, pos []float64, cutoff, side, dt float64) {
	t.Helper()
	for _, still := range []bool{false, true} {
		got, want := slices.Clone(atoms), slices.Clone(atoms)
		step := dt
		if still {
			step = 1
			for i := range got {
				got[i].Vx, got[i].Vy, got[i].Vz = 0, 0, 0
				want[i].Vx, want[i].Vy, want[i].Vz = 0, 0, 0
			}
		}
		var s strips
		gotPot, gotPairs := s.forces(got, pos, cutoff, side, step)
		wantPot, wantPairs := allPairs(want, pos, cutoff, side, step)
		if gotPairs != wantPairs {
			t.Fatalf("dt %v: %d pairs, oracle %d", step, gotPairs, wantPairs)
		}
		if math.Float64bits(gotPot) != math.Float64bits(wantPot) {
			t.Fatalf("dt %v: potential %v, oracle %v", step, gotPot, wantPot)
		}
		for i := range got {
			g, w := got[i], want[i]
			for f, pair := range [][2]float64{{g.X, w.X}, {g.Y, w.Y}, {g.Z, w.Z}, {g.Vx, w.Vx}, {g.Vy, w.Vy}, {g.Vz, w.Vz}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("dt %v: atom %d field %d is %v, oracle %v", step, i, f, pair[0], pair[1])
				}
			}
		}
		if s.axes[0].n == maxStrips {
			// Capped strips clamp far atoms together: no reach bound. X
			// spans the most strips, so it is the first axis capped.
			continue
		}
		reach, inReach := 1.6875*cutoff*(1+1e-12), 0
		for i := range atoms {
			for j := 0; j < len(pos)/3; j++ {
				if j != i && math.Abs(pos[3*i]-pos[3*j]) <= reach &&
					math.Abs(pos[3*i+1]-pos[3*j+1]) <= reach && math.Abs(pos[3*i+2]-pos[3*j+2]) <= reach {
					inReach++
				}
			}
		}
		if s.visited > inReach {
			t.Fatalf("dt %v: examined %d candidate pairs, only %d lie within 1.6875 cutoffs in X, Y and Z", step, s.visited, inReach)
		}
	}
}

func TestForcesMatchAllPairs(t *testing.T) {
	const side, cutoff, dt = 6.0, 1.6, 0.0005
	t.Run("lattice", func(t *testing.T) {
		for _, n := range []int{1, 32, 61, 200, 384} {
			atoms := lattice(n, side, 1)
			checkAgainstAllPairs(t, atoms, positions(atoms, lattice(n, side, 0), lattice(n, side, 2), side), cutoff, side, dt)
		}
	})
	t.Run("one rank, no halo", func(t *testing.T) {
		atoms := lattice(61, side, 0)
		checkAgainstAllPairs(t, atoms, positions(atoms, nil, nil, side), cutoff, side, dt)
	})
	t.Run("strip edges", func(t *testing.T) {
		// Atoms exactly on every strip edge inside the box and one ulp to
		// either side of it, close enough in Y and Z to interact.
		w := stripWidth * cutoff
		var atoms []Particle
		for k := 0; ; k++ {
			x := -side + float64(k)*w
			if x > side {
				break
			}
			for _, xe := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
				if xe >= 0 && xe <= side {
					atoms = append(atoms, Particle{X: xe, Y: 0.3 * float64(len(atoms)%5), Z: 0.2 * float64(len(atoms)%3), Vx: 0.01})
				}
			}
		}
		checkAgainstAllPairs(t, atoms, positions(atoms, atoms, atoms, side), cutoff, side, dt)
	})
	t.Run("coincident", func(t *testing.T) {
		// Exact duplicates and pairs just inside r2 < 1e-9, which the
		// kernel skips exactly as the oracle does.
		atoms := []Particle{
			{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1 + 1e-5, Y: 1, Z: 1},
			{X: 2, Y: 2, Z: 2, Vx: 0.1}, {X: 2, Y: 2, Z: 2 + 3e-5},
		}
		checkAgainstAllPairs(t, atoms, positions(atoms, atoms, atoms, side), cutoff, side, dt)
	})
	t.Run("box faces", func(t *testing.T) {
		// X exactly 0 and exactly side: their halo images sit at -side
		// and 2*side, the ends of the strip span.
		if got := wrap(-1e-18, side); got != side {
			t.Fatalf("wrap(-1e-18, %v) = %v; the box face is reachable", side, got)
		}
		atoms := []Particle{{X: 0, Y: 1, Z: 1}, {X: side, Y: 1, Z: 1.5}, {X: side, Y: 1.2, Z: 1}, {X: 0, Y: 1.1, Z: 1.1, Vx: -0.2}, {X: 0.5, Y: 1, Z: 1}}
		checkAgainstAllPairs(t, atoms, positions(atoms, atoms, atoms, side), cutoff, side, dt)
	})
	t.Run("cutoff against box", func(t *testing.T) {
		atoms := lattice(61, side, 3)
		pos := positions(atoms, lattice(61, side, 4), lattice(61, side, 5), side)
		for _, c := range []float64{1e-3, 0.05, 3, 100, 1e200} {
			checkAgainstAllPairs(t, atoms, pos, c, side, dt)
		}
	})
}

func TestWrapMapsNonFiniteToOrigin(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := wrap(x, 6); got != 0 {
			t.Errorf("wrap(%v, 6) = %v, want 0", x, got)
		}
	}
	for _, c := range []struct{ x, want float64 }{{7, 1}, {-1, 5}, {0, 0}, {6, 0}} {
		if got := wrap(c.x, 6); got != c.want {
			t.Errorf("wrap(%v, 6) = %v, want %v", c.x, got, c.want)
		}
	}
}

// modWrap is wrap without its fast paths: every finite x through
// math.Mod.
func modWrap(x, side float64) float64 {
	x = math.Mod(x, side)
	if x < 0 {
		x += side
	}
	return x
}

// wrap's fast paths give the bits math.Mod does, signed zeros included,
// at and around every edge they test: 0, ±side and ±2·side.
func TestWrapMatchesMod(t *testing.T) {
	for _, side := range []float64{6, 1e-300, 0.1, 3 * math.MaxFloat64 / 4} {
		var xs []float64
		for _, edge := range []float64{0, side, -side, 2 * side, -2 * side, 3 * side, side / 2, -side / 2, 1e-18, -1e-18} {
			xs = append(xs, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		xs = append(xs, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324)
		for _, x := range xs {
			if math.IsInf(x, 0) {
				continue
			}
			if got, want := wrap(x, side), modWrap(x, side); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("wrap(%v, %v) = %v, math.Mod gives %v", x, side, got, want)
			}
		}
	}
}

// FuzzForcesMatchAllPairs holds the strip kernel to the oracle on atom
// sets decoded from raw bytes: 1 to 96 local atoms with or without halos,
// coordinates on a grid of 1/1024 box sides (coincident atoms and exact
// strip edges are common), any positive finite cutoff and box side whose halo
// images stay finite.
func FuzzForcesMatchAllPairs(f *testing.F) {
	f.Add(uint8(60), true, 1.6, 6.0, []byte("comd strips"))
	f.Fuzz(func(t *testing.T, n uint8, halo bool, cutoff, side float64, raw []byte) {
		// The kernel takes finite positions: keep the halo images (one side
		// beyond the box) finite too.
		if !(cutoff > 0) || math.IsInf(cutoff, 0) || !(side > 0 && side <= 1e300) || len(raw) == 0 {
			return
		}
		local := 1 + int(n)%96
		count := local
		if halo {
			count *= 3
		}
		set := make([]Particle, count)
		for i := range set {
			at := func(k int) float64 {
				var b [2]byte
				for m := range b {
					b[m] = raw[(6*i+2*k+m)%len(raw)]
				}
				return float64(binary.LittleEndian.Uint16(b[:])%1025) / 1024 * side
			}
			set[i] = Particle{X: at(0), Y: at(1), Z: at(2), Vx: at(1) - at(2), Vy: 0.5 * at(0), Vz: -at(0)}
		}
		atoms := set[:local]
		var left, right []Particle
		if halo {
			left, right = set[local:2*local], set[2*local:]
		}
		checkAgainstAllPairs(t, atoms, positions(atoms, left, right, side), cutoff, side, 0.0005)
	})
}

// BenchmarkForces times one force step of a rank in the middle of the
// slab, at the quick matrix's 61 atoms per rank and at the paper's 384,
// for the strip kernel and for the all-pairs oracle it replaced.
func BenchmarkForces(b *testing.B) {
	const side, cutoff, dt = 6.0, 1.6, 0.0005
	for _, scale := range []struct {
		name  string
		atoms int
	}{{"quick", 61}, {"paper", 384}} {
		init := lattice(scale.atoms, side, 1)
		pos := positions(init, lattice(scale.atoms, side, 0), lattice(scale.atoms, side, 2), side)
		atoms := slices.Clone(init)
		var s strips
		for _, k := range []struct {
			name   string
			forces func([]Particle, []float64, float64, float64, float64) (float64, int)
		}{{"kernel", s.forces}, {"oracle", allPairs}} {
			b.Run(scale.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(atoms, init)
					k.forces(atoms, pos, cutoff, side, dt)
				}
			})
		}
	}
}

// TestCachedLatticeMatchesLattice: a Setup's lattice comes from the cache
// bit for bit as lattice computes it, each caller gets its own copy, and
// two goroutines asking for different (n, side) at once, each replacing
// the cache the other reads, still get theirs.
func TestCachedLatticeMatchesLattice(t *testing.T) {
	check := func(n int, side float64, rank int) bool {
		got, want := cachedLattice(nil, n, side, rank), lattice(n, side, rank)
		if !slices.Equal(got, want) {
			t.Errorf("cachedLattice(%d, %v, %d) differs from lattice", n, side, rank)
			return false
		}
		got[0].X = -1 // the caller's copy: the cache must not see this
		return true
	}
	for _, c := range []struct {
		n    int
		side float64
		rank int
	}{{61, 6, 0}, {61, 6, 3}, {61, 6, 0}, {384, 6, 0}, {61, 5, 0}, {61, 6, 3}} {
		check(c.n, c.side, c.rank)
	}
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20 && check(32+g, 6, i%4); i++ {
			}
		}(g)
	}
	<-done
	<-done
}
