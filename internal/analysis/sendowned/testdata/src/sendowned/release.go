// Seeded violations and legal shapes of the Release contract: a buffer
// given to the world's freelist is gone, like one given to SendOwned.
package sendowned

import "repro/internal/fabric"

func useAfterRelease(ep *fabric.Endpoint, n int) byte {
	b := ep.Alloc(n)
	b[0] = 1
	ep.Release(b)
	return b[0] // want `slice b used after Release returned it to the world's freelist`
}

func writeAfterRelease(ep *fabric.Endpoint, n int) {
	b := ep.Alloc(n)
	ep.Release(b)
	b[0] = 1 // want `slice b used after Release returned it to the world's freelist`
}

func doubleRelease(ep *fabric.Endpoint, n int) {
	b := ep.Alloc(n)
	ep.Release(b)
	ep.Release(b) // want `slice b used after Release returned it to the world's freelist`
}

// viewOutlivesBuffer is the collective-scratch bug class: a block of the
// staging buffer is still read after the buffer went back.
func viewOutlivesBuffer(ep *fabric.Endpoint, dst []byte, n int) {
	work := ep.Alloc(n)
	own := work[4:8]
	ep.Release(work)
	copy(dst, own) // want `alias of work used after Release returned it to the world's freelist`
}

func releasedPayloadRead(ep *fabric.Endpoint) byte {
	e := ep.Recv()
	ep.Release(e.Payload)
	return e.Payload[0] // want `slice e.Payload used after Release returned it to the world's freelist`
}

type request struct {
	rawOut []byte
	done   bool
}

func fieldAfterRelease(ep *fabric.Endpoint, r *request, dst []byte) {
	ep.Release(r.rawOut)
	copy(dst, r.rawOut) // want `slice r.rawOut used after Release returned it to the world's freelist`
}

// consumeThenRelease is the legal shape (mpicore's collExec.wait): the bytes
// are copied out first, and the owner of the field is used afterwards
// without touching the field.
func consumeThenRelease(ep *fabric.Endpoint, r *request, dst []byte) bool {
	copy(dst, r.rawOut)
	ep.Release(r.rawOut)
	return r.done
}

// dropDuplicate is mpicore's replAdmit: the payload goes to the freelist,
// the envelope — not the payload — is used afterwards.
func dropDuplicate(ep *fabric.Endpoint) {
	e := ep.Recv()
	ep.Release(e.Payload)
	fabric.PutEnvelope(e)
}

// reallocAfterRelease: re-binding the variable is not a use.
func reallocAfterRelease(ep *fabric.Endpoint, n int) []byte {
	b := ep.Alloc(n)
	ep.Release(b)
	b = ep.Alloc(2 * n)
	b[0] = 1
	return b
}

// releaseOnOneArm: a release on the success path only (the collective
// wrappers' rule) does not taint the error path's return.
func releaseOnOneArm(ep *fabric.Endpoint, n int, fail bool) []byte {
	b := ep.Alloc(n)
	if fail {
		return b
	}
	ep.Release(b)
	return nil
}
