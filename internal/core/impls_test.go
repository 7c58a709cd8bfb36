package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mukautuva"
	"repro/internal/scenario"
)

// fourthImpl is a wrap adapter registered by the test alone: stdabi's
// library under another name, as an implementation added outside this
// repository would register itself.
const fourthImpl core.Impl = "fourth"

func registerFourth() {
	if !slices.Contains(mukautuva.Implementations(), string(fourthImpl)) {
		mukautuva.Register(string(fourthImpl), func(w *fabric.World, rank int) (*mukautuva.WrapLib, error) {
			return mukautuva.LoadLib(string(core.ImplStdABI), w, rank)
		})
	}
}

// TestRegisteredImplementationIsSelectable: the implementations a Stack
// may select are exactly the registered wrap adapters, so registering a
// fourth makes it valid, labelled by its name, and enumerated by any
// matrix that names it, as a launch and as a restart implementation.
func TestRegisteredImplementationIsSelectable(t *testing.T) {
	if err := core.DefaultStack("unregistered", core.ABIMukautuva, core.CkptMANA).Validate(); err == nil {
		t.Fatal("an unregistered implementation validated")
	}
	registerFourth()
	stack := core.DefaultStack(fourthImpl, core.ABIMukautuva, core.CkptMANA)
	if !slices.Contains(core.Impls(), fourthImpl) {
		t.Fatalf("core.Impls() = %v lacks %q", core.Impls(), fourthImpl)
	}
	if err := stack.Validate(); err != nil {
		t.Fatalf("registered implementation rejected: %v", err)
	}
	if got, want := stack.Label(), "fourth + Mukautuva + MANA"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
	m := scenario.MatrixSpec{
		Programs:     []string{"app.wave"},
		Impls:        []core.Impl{core.ImplMPICH, fourthImpl},
		ABIs:         []core.ABIMode{core.ABINative, core.ABIMukautuva},
		Ckpts:        []core.CkptMode{core.CkptNone, core.CkptMANA},
		CrossRestart: true,
	}
	launches, restarts := 0, 0
	for _, s := range m.Enumerate() {
		if s.Impl == fourthImpl {
			launches++
		}
		if s.Impl == core.ImplMPICH && s.RestartImpl == fourthImpl {
			restarts++
		}
	}
	// Launched under it: four plain and MANA cells, the native MANA
	// image's restart under itself, and the shimmed MANA image's under
	// either implementation. Restarted under it: mpich's shimmed MANA
	// image.
	if launches != 7 || restarts != 1 {
		t.Errorf("matrix over mpich and %s: %d cells launch under it, %d restart mpich's image under it; want 7 and 1",
			fourthImpl, launches, restarts)
	}
}
