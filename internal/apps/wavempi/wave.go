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
// In the README's layer diagram wave_mpi is the applications row,
// compiled once against internal/abi like its CoMD sibling.
package wavempi

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
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
}

// CheckpointTo streams the rank's state into a checkpoint image (core's
// optional stream pair): the two time levels are nearly all of it, so they
// travel as raw blocks behind a gob stream of everything else, instead of
// gob encoding them one varint float at a time.
func (w *Wave) CheckpointTo(out io.Writer) error {
	rest := *w
	rest.UPrev, rest.U = nil, nil
	if err := gob.NewEncoder(out).Encode(&rest); err != nil {
		return err
	}
	if err := abi.WriteFloat64s(out, w.UPrev); err != nil {
		return err
	}
	return abi.WriteFloat64s(out, w.U)
}

// RestoreFrom is CheckpointTo's inverse, decoding over the factory-fresh
// instance a restart builds. in is core's io.ByteReader over the section,
// which is what stops gob at the end of its message, short of the blocks.
func (w *Wave) RestoreFrom(in io.Reader) error {
	if err := gob.NewDecoder(in).Decode(w); err != nil {
		return err
	}
	var err error
	if w.UPrev, err = abi.ReadFloat64s(in); err != nil {
		return fmt.Errorf("wavempi: previous time level: %w", err)
	}
	if w.U, err = abi.ReadFloat64s(in); err != nil {
		return fmt.Errorf("wavempi: current time level: %w", err)
	}
	if len(w.U) != len(w.UPrev) {
		return fmt.Errorf("wavempi: image holds %d current but %d previous points", len(w.U), len(w.UPrev))
	}
	return nil
}

// New returns the paper-scale configuration: enough points and steps that
// the completion time lands in Figure 5's seconds range.
func New() *Wave {
	return &Wave{
		GlobalPoints:      1 << 20,
		Steps:             400,
		C:                 1.0,
		Dt:                0.00005,
		ComputeNsPerPoint: 250,
	}
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

// Setup initializes the rank's slab with the standing-wave initial
// condition.
func (w *Wave) Setup(env *abi.Env) error {
	if w.GlobalPoints < env.Size()*2 {
		return fmt.Errorf("wavempi: %d points cannot split over %d ranks", w.GlobalPoints, env.Size())
	}
	w.lo, w.hi = split(w.GlobalPoints, env.Size(), env.Rank())
	n := w.hi - w.lo
	w.UPrev = make([]float64, n)
	w.U = make([]float64, n)
	dx := 1.0 / float64(w.GlobalPoints-1)
	for i := 0; i < n; i++ {
		x := float64(w.lo+i) * dx
		w.U[i] = math.Sin(2 * math.Pi * x)
		w.UPrev[i] = w.U[i]
	}
	return nil
}

// Step advances one time level: exchange halo values with both neighbors,
// apply the stencil, rotate the time levels.
func (w *Wave) Step(env *abi.Env) (bool, error) {
	if w.lo == 0 && w.hi == 0 { // restarted image: recompute the partition
		w.lo, w.hi = split(w.GlobalPoints, env.Size(), env.Rank())
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
	var leftGhost, rightGhost [8]byte
	var reqs []abi.Handle
	r1, err := env.T.Irecv(leftGhost[:], 1, env.TypeFloat64, left, 10, env.CommWorld)
	if err != nil {
		return false, err
	}
	r2, err := env.T.Irecv(rightGhost[:], 1, env.TypeFloat64, right, 11, env.CommWorld)
	if err != nil {
		return false, err
	}
	reqs = append(reqs, r1, r2)
	if err := env.T.Send(abi.Float64Bytes(w.U[:1]), 1, env.TypeFloat64, left, 11, env.CommWorld); err != nil {
		return false, err
	}
	if err := env.T.Send(abi.Float64Bytes(w.U[n-1:]), 1, env.TypeFloat64, right, 10, env.CommWorld); err != nil {
		return false, err
	}
	if err := env.T.Waitall(reqs, nil); err != nil {
		return false, err
	}

	dx := 1.0 / float64(w.GlobalPoints-1)
	alpha := w.C * w.C * w.Dt * w.Dt / (dx * dx)
	// The next time level overwrites the previous one's storage: uNext[i]
	// reads UPrev[i] — before writing it — and U[i±1], nothing else.
	uNext := w.UPrev
	at := func(i int) float64 {
		switch {
		case i < 0:
			if me == 0 {
				return 0 // fixed physical boundary
			}
			return abi.Float64sOf(leftGhost[:])[0]
		case i >= n:
			if me == size-1 {
				return 0
			}
			return abi.Float64sOf(rightGhost[:])[0]
		default:
			return w.U[i]
		}
	}
	for i := 0; i < n; i++ {
		uNext[i] = 2*w.U[i] - uNext[i] + alpha*(at(i-1)-2*w.U[i]+at(i+1))
	}
	w.UPrev, w.U = w.U, uNext
	// Charge the stencil's virtual compute cost, with OS-noise jitter.
	cost := float64(n) * w.ComputeNsPerPoint
	cost *= 1 + 0.05*noise(w.Seed, int64(w.Iter), int64(me))
	env.Compute(time.Duration(cost))
	w.Iter++
	if w.Iter >= w.Steps {
		// Final consistency value: global energy-ish checksum.
		var local float64
		for _, v := range w.U {
			local += v * v
		}
		out := make([]byte, 8)
		if err := env.T.Allreduce(abi.Float64Bytes([]float64{local}), out, 1,
			env.TypeFloat64, env.OpSum, env.CommWorld); err != nil {
			return false, err
		}
		w.Checked = abi.Float64sOf(out)[0]
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

// ScaleSteps shrinks the run for quick harness configurations.
func (w *Wave) ScaleSteps(f float64) {
	w.Steps = int(float64(w.Steps) * f)
	if w.Steps < 3 {
		w.Steps = 3
	}
	w.GlobalPoints = int(float64(w.GlobalPoints) * f)
	if w.GlobalPoints < 256 {
		w.GlobalPoints = 256
	}
}

// SetSeed plants the run's OS-noise seed (harness hook).
func (w *Wave) SetSeed(s int64) { w.Seed = s }
