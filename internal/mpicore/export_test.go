package mpicore

import "repro/internal/abi"

// RaceBuild exposes raceBuild to the external tests.
const RaceBuild = raceBuild

// RequestOf returns the runtime request a binding's handle maps to, nil
// for a handle it does not map.
func (b *Binding) RequestOf(h abi.Handle) *Request { return b.reqs[h] }
