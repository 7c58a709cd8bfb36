// False-positive regressions: the runtime's real hot-path idioms, none
// of which may be flagged.
package envlifetime

import "repro/internal/fabric"

// branchAgree mirrors sendInternal's eager path: both arms transfer, so
// no leak is reported after the merge.
func branchAgree(ep *fabric.Endpoint, owned bool) error {
	e := fabric.GetEnvelope()
	if owned {
		ep.SendOwned(e)
	} else {
		ep.Send(e)
	}
	return nil
}

// errorUnwind is a decoder loop: the error path recycles the current
// envelope plus everything accumulated, the success path escapes it
// into the result slice.
func errorUnwind(datas [][]byte) []*fabric.Envelope {
	var envs []*fabric.Envelope
	for _, d := range datas {
		e := fabric.GetEnvelope()
		if len(d) == 0 {
			fabric.PutEnvelope(e)
			for _, prev := range envs {
				fabric.PutEnvelope(prev)
			}
			return nil
		}
		e.Payload = append(e.Payload[:0], d...)
		envs = append(envs, e)
	}
	return envs
}

// branchRelease mirrors dispatch: each protocol arm disposes of the
// envelope its own way and the arms never rejoin live state.
func branchRelease(ep *fabric.Endpoint, proto int) {
	e := fabric.GetEnvelope()
	switch proto {
	case 0:
		fabric.PutEnvelope(e)
	case 1:
		ep.Send(e)
	default:
		fabric.PutEnvelope(e)
	}
}

// deferredPut counts as a release: defers run at an unknowable point in
// the model, so leak tracking lets go.
func deferredPut(use func(*fabric.Envelope)) {
	e := fabric.GetEnvelope()
	defer fabric.PutEnvelope(e)
	use(e)
}
