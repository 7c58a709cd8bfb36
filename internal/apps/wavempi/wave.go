// Package wavempi reproduces Burkardt's wave_mpi benchmark, the second
// real-world application in the paper's Figure 5: a 1-D wave equation
// u_tt = c^2 u_xx solved by explicit finite differences, with the spatial
// domain block-distributed across ranks and one halo value exchanged with
// each neighbor per time step.
//
// The communication signature is what matters for the reproduction: two
// tiny point-to-point messages per rank per step, which is why the paper
// sees essentially zero Mukautuva+MANA overhead on it.
//
// The stencil's interior, the repo's hottest loop, runs on amd64 in an
// SSE2 kernel (stencil_amd64.s) that performs the reference loop's IEEE
// operations (stencilLoop) in the loop's order, two points at a time, so
// it gives the loop's bits; the tests hold it to the loop bit for bit,
// and every other architecture runs the loop itself. Every product is
// rounded before it is added, so an architecture with fused multiply-add
// computes amd64's bits too.
//
// In the README's layer diagram wave_mpi is the applications row,
// compiled once against internal/abi like its CoMD sibling.
package wavempi

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
)

// Wave is the per-rank program state. Exported fields are checkpointed.
type Wave struct {
	// Parameters (set at launch).
	GlobalPoints int     // total grid points
	Steps        int     // time steps to run
	C            float64 // wave speed
	Dt           float64 // time step

	// ComputeNsPerPoint models the per-point floating-point cost in
	// virtual time; the stencil itself also really executes.
	ComputeNsPerPoint float64
	// Seed feeds the OS-noise model (per-step compute jitter), giving
	// repeated runs the run-to-run variance Figure 5's error bars show.
	Seed int64

	// State.
	Iter    int
	UPrev   []float64
	U       []float64
	lo, hi  int // owned index range [lo, hi)
	Checked float64

	buf stepBuffers
}

// stepBuffers is what Step reuses from step to step: the MPI calls keep
// these buffers, so locals would escape to the heap on every step. Its
// fields are unexported, so checkpoint images skip them.
type stepBuffers struct {
	leftGhost, rightGhost [8]byte
	send                  [16]byte // the first point, then the last
	reqs                  [2]abi.Handle
	sums                  [16]byte // final allreduce input, then output
}

// New returns the paper-scale configuration: enough points and steps that
// the completion time lands in Figure 5's seconds range.
func New() *Wave {
	w := &Wave{
		GlobalPoints:      1 << 20,
		Steps:             400,
		C:                 1.0,
		ComputeNsPerPoint: 250,
	}
	w.Dt = stableDt(w.GlobalPoints, w.C)
	return w
}

// courant is the Courant number C·Dt/dx that New and ScaleSteps set. The
// explicit scheme is stable up to 1; at 0.5 the stencil's α = (C·Dt/dx)²
// is 0.25 on every grid.
const courant = 0.5

// stableDt is the time step at the Courant number courant for a wave of
// speed c on a grid of points points.
func stableDt(points int, c float64) float64 {
	dx := 1.0 / float64(points-1)
	return courant * dx / c
}

// split computes rank r's block [lo, hi) of n points over size ranks.
func split(n, size, r int) (int, int) {
	base, rem := n/size, n%size
	lo := r*base + min(r, rem)
	sz := base
	if r < rem {
		sz++
	}
	return lo, lo + sz
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// standing is the initial condition of the last grid a Setup asked for:
// sin(2πx) at each of its points. Every rank of every launch on that grid
// copies its block from it instead of recomputing the sines. It holds one
// grid, so its memory stays bounded; a Setup on another grid replaces it.
// A published table is never written again, so a Setup copies from it
// outside the lock.
var standing struct {
	sync.Mutex
	points int
	u      []float64
}

// standingWave returns the read-only initial-condition table of a
// points-point grid.
func standingWave(points int) []float64 {
	standing.Lock()
	defer standing.Unlock()
	if standing.points != points {
		dx := 1.0 / float64(points-1)
		u := make([]float64, points)
		for i := range u {
			u[i] = math.Sin(2 * math.Pi * (float64(i) * dx))
		}
		standing.points, standing.u = points, u
	}
	return standing.u
}

// Setup initializes the rank's slab with the standing-wave initial
// condition, in the time levels' own storage when a Reset kept enough.
func (w *Wave) Setup(env *abi.Env) error {
	if w.GlobalPoints < env.Size()*2 {
		return fmt.Errorf("wavempi: %d points cannot split over %d ranks", w.GlobalPoints, env.Size())
	}
	w.lo, w.hi = split(w.GlobalPoints, env.Size(), env.Rank())
	u := standingWave(w.GlobalPoints)[w.lo:w.hi]
	w.UPrev = append(w.UPrev[:0], u...)
	w.U = append(w.U[:0], u...)
	return nil
}

// Reset returns w to New's state for the next job (core.Job.Release),
// keeping the storage of both time levels for Setup or a restore to
// reuse.
func (w *Wave) Reset() {
	u, prev := w.U[:0], w.UPrev[:0]
	core.Poison(u)
	core.Poison(prev)
	*w = *New()
	w.U, w.UPrev = u, prev
}

// Step advances one time level: exchange halo values with both neighbors,
// apply the stencil, rotate the time levels.
func (w *Wave) Step(env *abi.Env) (bool, error) {
	if w.lo == 0 && w.hi == 0 { // restarted image: recompute the partition
		w.lo, w.hi = split(w.GlobalPoints, env.Size(), env.Rank())
		if n := w.hi - w.lo; len(w.U) != n || len(w.UPrev) != n {
			return false, fmt.Errorf("wavempi: image holds %d current and %d previous points for a %d-point block",
				len(w.U), len(w.UPrev), n)
		}
	}
	n := w.hi - w.lo
	me, size := env.Rank(), env.Size()
	left, right := me-1, me+1
	if left < 0 {
		left = env.ProcNull
	}
	if right >= size {
		right = env.ProcNull
	}
	// Halo exchange: send boundary values, receive ghosts. PROC_NULL at
	// the physical boundaries keeps the code branch-free, as in the
	// original Fortran.
	b := &w.buf
	var err error
	if b.reqs[0], err = env.T.Irecv(b.leftGhost[:], 1, env.TypeFloat64, left, 10, env.CommWorld); err != nil {
		return false, err
	}
	if b.reqs[1], err = env.T.Irecv(b.rightGhost[:], 1, env.TypeFloat64, right, 11, env.CommWorld); err != nil {
		return false, err
	}
	abi.PutFloat64s(b.send[:8], w.U[:1])
	abi.PutFloat64s(b.send[8:], w.U[n-1:])
	if err := env.T.Send(b.send[:8], 1, env.TypeFloat64, left, 11, env.CommWorld); err != nil {
		return false, err
	}
	if err := env.T.Send(b.send[8:], 1, env.TypeFloat64, right, 10, env.CommWorld); err != nil {
		return false, err
	}
	if err := env.T.Waitall(b.reqs[:], nil); err != nil {
		return false, err
	}

	dx := 1.0 / float64(w.GlobalPoints-1)
	alpha := w.C * w.C * w.Dt * w.Dt / (dx * dx)
	// The next time level overwrites the previous one's storage: uNext[i]
	// reads UPrev[i] — before writing it — and U[i±1], nothing else.
	uNext, u := w.UPrev, w.U
	// The ghosts beyond the physical boundaries are the fixed value 0.
	var ghost [2]float64 // left, right
	if me > 0 {
		abi.GetFloat64s(b.leftGhost[:], ghost[:1])
	}
	if me < size-1 {
		abi.GetFloat64s(b.rightGhost[:], ghost[1:])
	}
	// The two boundary points read a ghost, the interior only u (Setup
	// gives every rank at least two points). Each point is the same
	// update, so the bits match a loop that fetched its neighbors point by
	// point. The interior's out[i] is point i+1.
	uNext[0] = update(uNext[0], ghost[0], u[0], u[1], alpha)
	stencil(uNext[1:n-1], u, alpha)
	uNext[n-1] = update(uNext[n-1], u[n-2], u[n-1], ghost[1], alpha)
	w.UPrev, w.U = w.U, uNext
	// Charge the stencil's virtual compute cost, with OS-noise jitter.
	cost := float64(n) * w.ComputeNsPerPoint
	cost *= 1 + float64(0.05*noise(w.Seed, int64(w.Iter), int64(me))) // rounded, never fused
	env.Compute(time.Duration(cost))
	w.Iter++
	if w.Iter >= w.Steps {
		// Final consistency value: global energy-ish checksum.
		var local float64
		for _, v := range w.U {
			local += float64(v * v) // rounded, never fused
		}
		abi.PutFloat64s(b.sums[:8], []float64{local})
		if err := env.T.Allreduce(b.sums[:8], b.sums[8:], 1, env.TypeFloat64, env.OpSum, env.CommWorld); err != nil {
			return false, err
		}
		var checked [1]float64
		abi.GetFloat64s(b.sums[8:], checked[:])
		w.Checked = checked[0]
		return true, nil
	}
	return false, nil
}

// noise returns a deterministic pseudo-random value in [0, 1) from the
// run seed, step and rank — the OS-noise model shared by the Figure 5
// applications.
func noise(seed, iter, rank int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9 ^ uint64(rank)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x%1000000) / 1000000
}

func init() {
	core.RegisterProgram("app.wave", func() core.Program { return New() })
}

// ScaleSteps shrinks the run for quick harness configurations, keeping
// the time step at the Courant number New sets.
func (w *Wave) ScaleSteps(f float64) {
	w.Steps = int(float64(w.Steps) * f)
	if w.Steps < 3 {
		w.Steps = 3
	}
	w.GlobalPoints = int(float64(w.GlobalPoints) * f)
	if w.GlobalPoints < 256 {
		w.GlobalPoints = 256
	}
	w.Dt = stableDt(w.GlobalPoints, w.C)
}

// SetSeed plants the run's OS-noise seed (harness hook).
func (w *Wave) SetSeed(s int64) { w.Seed = s }
