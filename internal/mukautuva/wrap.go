package mukautuva

import (
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/stdabi"
)

// natives lists the implementations this repository ships, each as its
// ABI surface in data. It is the one implementation table: every wrap
// adapter below, the native stacks of internal/core and Wi4MPI's targets
// come from it, so a further implementation is its own package plus one
// entry here.
var natives = []*mpicore.Impl{mpich.Impl, openmpi.Impl, stdabi.Impl}

// The libmpich-wrap.so / libompi-wrap.so analogs: each instantiates its
// implementation's lower half and exposes the extra translation symbols
// the shim needs (error-class mapping, version banner). In the future
// MPI-5 world the paper anticipates, each implementation ships this
// adapter itself. The standard-ABI implementation's adapter has identity
// translation symbols: it slots into the compatibility layer for free,
// which is the future the paper's Section 6 anticipates where libmuk.so
// becomes unnecessary.
func init() {
	for _, im := range natives {
		im := im
		Register(im.Name, func(w *fabric.World, rank int) (*WrapLib, error) {
			b := im.Init(w, rank)
			return &WrapLib{Table: b, ErrClass: im.ClassOfCode, Version: im.Version, Finalize: b.Finalize}, nil
		})
	}
}
