package mukautuva

import (
	"repro/internal/fabric"
	"repro/internal/mpich"
)

// wrap_mpich.go is the libmpich-wrap.so analog: it knows how to
// instantiate the MPICH lower half and exposes the extra translation
// symbols the shim needs (error-class mapping, version banner). In the
// future MPI-5 world the paper anticipates, each implementation ships
// this file itself.

func init() {
	Register("mpich", func(w *fabric.World, rank int) (*WrapLib, error) {
		p := mpich.Init(w, rank)
		return &WrapLib{
			Table:    mpich.Bind(p),
			ErrClass: mpich.ClassOfCode,
			Version:  mpich.Version,
			Finalize: func() { p.Finalize() },
		}, nil
	})
}
