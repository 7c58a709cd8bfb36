package mana

import (
	"repro/internal/abi"
)

// ImplName reports the full stack identity.
func (w *Wrapper) ImplName() string { return "mana+" + w.inner.ImplName() }

// matchBuffered finds the oldest drained message matching (source, tag)
// with standard wildcards; remove=false implements probing.
func (w *Wrapper) matchBuffered(comm abi.Handle, source, tag int, remove bool) (Drained, bool) {
	q := w.buffered[comm]
	for i, d := range q {
		if source != abi.AnySource && d.Source != source {
			continue
		}
		if tag != abi.AnyTag && d.Tag != int32(tag) {
			continue
		}
		if remove {
			w.buffered[comm] = append(q[:i:i], q[i+1:]...)
		}
		return d, true
	}
	return Drained{}, false
}

// deliverBuffered hands a drained message to the application through the
// lower half's own unpack machinery: the wrapper re-injects the packed
// bytes as a self-send on the same communicator and immediately receives
// them with the application's datatype. The status is then rewritten with
// the original envelope facts.
func (w *Wrapper) deliverBuffered(d Drained, buf []byte, count int, dtype, comm abi.Handle, st *abi.Status) error {
	ic := w.In(comm)
	info := w.comms[comm]
	if info == nil {
		return abi.Errorf(abi.ErrComm, "mana", "buffered delivery on unknown communicator %v", comm)
	}
	if err := w.inner.Send(d.Data, len(d.Data), w.iByteType, info.myRank, int(d.Tag), ic); err != nil {
		return w.Err(err)
	}
	var tmp abi.Status
	err := w.inner.Recv(buf, count, w.In(dtype), info.myRank, int(d.Tag), ic, &tmp)
	w.StatusBack(&tmp)
	tmp.Source = int32(d.Source)
	tmp.Tag = d.Tag
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

// Point-to-point: every message is counted per (communicator, peer) for
// the drain protocol, receives and probes look in the drain buffers before
// the network, and requests are virtual ids of their own range.

func (w *Wrapper) Send(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) error {
	w.Charge()
	err := w.inner.Send(buf, count, w.In(dtype), w.PeerIn(dest), tag, w.In(comm))
	if err == nil && dest != abi.ProcNull {
		bump(w.sent, comm, dest)
	}
	return w.Err(err)
}

func (w *Wrapper) Recv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle, st *abi.Status) error {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, true); ok {
		return w.deliverBuffered(d, buf, count, dtype, comm, st)
	}
	var tmp abi.Status
	err := w.inner.Recv(buf, count, w.In(dtype), w.PeerIn(source), w.TagIn(tag), w.In(comm), &tmp)
	w.StatusBack(&tmp)
	if err == nil && tmp.Source >= 0 {
		bump(w.recvd, comm, int(tmp.Source))
	}
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

func (w *Wrapper) Isend(buf []byte, count int, dtype abi.Handle, dest, tag int, comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	r, err := w.inner.Isend(buf, count, w.In(dtype), w.PeerIn(dest), tag, w.In(comm))
	if err != nil {
		return abi.RequestNull, w.Err(err)
	}
	if dest != abi.ProcNull {
		bump(w.sent, comm, dest)
	}
	rv := w.reqVid()
	w.Bind(rv, r)
	w.reqs[rv] = &reqInfo{isRecv: false, comm: comm}
	return rv, nil
}

func (w *Wrapper) Irecv(buf []byte, count int, dtype abi.Handle, source, tag int, comm abi.Handle) (abi.Handle, error) {
	w.Charge()
	rv := w.reqVid()
	if d, ok := w.matchBuffered(comm, source, tag, true); ok {
		var st abi.Status
		err := w.deliverBuffered(d, buf, count, dtype, comm, &st)
		w.reqs[rv] = &reqInfo{isRecv: true, comm: comm, pseudo: true, status: st, code: err}
		return rv, nil
	}
	r, err := w.inner.Irecv(buf, count, w.In(dtype), w.PeerIn(source), w.TagIn(tag), w.In(comm))
	if err != nil {
		return abi.RequestNull, w.Err(err)
	}
	w.Bind(rv, r)
	w.reqs[rv] = &reqInfo{isRecv: true, comm: comm}
	return rv, nil
}

func (w *Wrapper) Wait(req abi.Handle, st *abi.Status) error {
	w.Charge()
	info, ok := w.reqs[req]
	if !ok {
		return abi.Errorf(abi.ErrRequest, "mana", "unknown request %v", req)
	}
	if info.pseudo {
		delete(w.reqs, req)
		if st != nil {
			*st = info.status
		}
		return info.code
	}
	var tmp abi.Status
	err := w.inner.Wait(w.In(req), &tmp)
	w.StatusBack(&tmp)
	if err == nil && info.isRecv && tmp.Source >= 0 {
		bump(w.recvd, info.comm, int(tmp.Source))
	}
	delete(w.reqs, req)
	w.Release(req)
	if st != nil {
		*st = tmp
	}
	return w.Err(err)
}

func (w *Wrapper) Test(req abi.Handle, st *abi.Status) (bool, error) {
	w.Charge()
	info, ok := w.reqs[req]
	if !ok {
		return false, abi.Errorf(abi.ErrRequest, "mana", "unknown request %v", req)
	}
	if info.pseudo {
		delete(w.reqs, req)
		if st != nil {
			*st = info.status
		}
		return true, info.code
	}
	var tmp abi.Status
	done, err := w.inner.Test(w.In(req), &tmp)
	if !done {
		return false, w.Err(err)
	}
	w.StatusBack(&tmp)
	if err == nil && info.isRecv && tmp.Source >= 0 {
		bump(w.recvd, info.comm, int(tmp.Source))
	}
	delete(w.reqs, req)
	w.Release(req)
	if st != nil {
		*st = tmp
	}
	return true, w.Err(err)
}

func (w *Wrapper) Waitall(reqs []abi.Handle, sts []abi.Status) error {
	if sts != nil && len(sts) != len(reqs) {
		return abi.Errorf(abi.ErrArg, "mana", "waitall status slice length mismatch")
	}
	var firstErr error
	for i, r := range reqs {
		var st abi.Status
		if err := w.Wait(r, &st); err != nil && firstErr == nil {
			firstErr = err
		}
		if sts != nil {
			sts[i] = st
		}
	}
	return firstErr
}

func (w *Wrapper) Sendrecv(sendbuf []byte, scount int, stype abi.Handle, dest, stag int,
	recvbuf []byte, rcount int, rtype abi.Handle, source, rtag int,
	comm abi.Handle, st *abi.Status) error {
	rr, err := w.Irecv(recvbuf, rcount, rtype, source, rtag, comm)
	if err != nil {
		return err
	}
	if err := w.Send(sendbuf, scount, stype, dest, stag, comm); err != nil {
		return err
	}
	return w.Wait(rr, st)
}

func (w *Wrapper) Probe(source, tag int, comm abi.Handle, st *abi.Status) error {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, false); ok {
		if st != nil {
			st.Source = int32(d.Source)
			st.Tag = d.Tag
			st.Error = 0
			st.CountBytes = uint64(len(d.Data))
		}
		return nil
	}
	err := w.inner.Probe(w.PeerIn(source), w.TagIn(tag), w.In(comm), st)
	w.StatusBack(st)
	return w.Err(err)
}

func (w *Wrapper) Iprobe(source, tag int, comm abi.Handle, st *abi.Status) (bool, error) {
	w.Charge()
	if d, ok := w.matchBuffered(comm, source, tag, false); ok {
		if st != nil {
			st.Source = int32(d.Source)
			st.Tag = d.Tag
			st.Error = 0
			st.CountBytes = uint64(len(d.Data))
		}
		return true, nil
	}
	found, err := w.inner.Iprobe(w.PeerIn(source), w.TagIn(tag), w.In(comm), st)
	if found {
		w.StatusBack(st)
	}
	return found, w.Err(err)
}

// Object creation and destruction: the translator's call, plus the event
// that lets restart replay it against a fresh lower half.

// newComm registers a freshly created communicator vid (CommNull for
// collective participation without membership, e.g. an UNDEFINED split
// colour) and records the creation event.
func (w *Wrapper) newComm(op EvOp, parent, aux, v abi.Handle, ints []int) (abi.Handle, error) {
	parentInfo := w.comms[parent]
	if parentInfo == nil {
		return abi.CommNull, abi.Errorf(abi.ErrComm, "mana", "unknown parent communicator %v", parent)
	}
	ord := parentInfo.nextOrd
	parentInfo.nextOrd++
	color := 0
	if op == EvCommSplit {
		color = ints[0]
	}
	gid := commGID(parentInfo.gid, op, ord, color)
	w.record(Event{Op: op, Parent: parent, Aux: aux, Ints: ints, GID: gid, Vid: v})
	if v == abi.CommNull {
		return v, nil
	}
	if err := w.trackComm(v, gid); err != nil {
		return abi.CommNull, w.Err(err)
	}
	return v, nil
}

// trackComm caches the drain-relevant facts of a bound communicator vid.
func (w *Wrapper) trackComm(v abi.Handle, gid uint64) error {
	native := w.In(v)
	myRank, err := w.inner.CommRank(native)
	if err != nil {
		return err
	}
	size, err := w.inner.CommSize(native)
	if err != nil {
		return err
	}
	w.comms[v] = &commInfo{gid: gid, myRank: myRank, size: size}
	return nil
}

func (w *Wrapper) CommDup(comm abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.CommDup(comm)
	if err != nil {
		return v, err
	}
	return w.newComm(EvCommDup, comm, abi.HandleNull, v, nil)
}

func (w *Wrapper) CommSplit(comm abi.Handle, color, key int) (abi.Handle, error) {
	v, err := w.Translator.CommSplit(comm, color, key)
	if err != nil {
		return v, err
	}
	return w.newComm(EvCommSplit, comm, abi.HandleNull, v, []int{color, key})
}

func (w *Wrapper) CommCreate(comm, group abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.CommCreate(comm, group)
	if err != nil {
		return v, err
	}
	return w.newComm(EvCommCreate, comm, group, v, nil)
}

func (w *Wrapper) CommFree(comm abi.Handle) error {
	if err := w.Translator.CommFree(comm); err != nil {
		return err
	}
	w.record(Event{Op: EvCommFree, Vid: comm})
	w.forgetComm(comm)
	return nil
}

// forgetComm drops a freed communicator's drain state.
func (w *Wrapper) forgetComm(comm abi.Handle) {
	delete(w.comms, comm)
	delete(w.sent, comm)
	delete(w.recvd, comm)
	delete(w.buffered, comm)
}

// created records the recipe of a successfully created object.
func (w *Wrapper) created(v abi.Handle, err error, ev Event) (abi.Handle, error) {
	if err == nil {
		ev.Vid = v
		w.record(ev)
	}
	return v, err
}

// changed records a successful commit or free of vid.
func (w *Wrapper) changed(err error, op EvOp, vid abi.Handle) error {
	if err == nil {
		w.record(Event{Op: op, Vid: vid})
	}
	return err
}

func (w *Wrapper) CommGroup(comm abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.CommGroup(comm)
	return w.created(v, err, Event{Op: EvCommGroup, Parent: comm})
}

func (w *Wrapper) GroupIncl(group abi.Handle, ranks []int) (abi.Handle, error) {
	v, err := w.Translator.GroupIncl(group, ranks)
	return w.created(v, err, Event{Op: EvGroupIncl, Parent: group, Ints: append([]int(nil), ranks...)})
}

func (w *Wrapper) GroupExcl(group abi.Handle, ranks []int) (abi.Handle, error) {
	v, err := w.Translator.GroupExcl(group, ranks)
	return w.created(v, err, Event{Op: EvGroupExcl, Parent: group, Ints: append([]int(nil), ranks...)})
}

func (w *Wrapper) GroupFree(group abi.Handle) error {
	return w.changed(w.Translator.GroupFree(group), EvGroupFree, group)
}

func (w *Wrapper) TypeContiguous(count int, inner abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.TypeContiguous(count, inner)
	return w.created(v, err, Event{Op: EvTypeContig, Parent: inner, Ints: []int{count}})
}

func (w *Wrapper) TypeVector(count, blocklen, stride int, inner abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.TypeVector(count, blocklen, stride, inner)
	return w.created(v, err, Event{Op: EvTypeVector, Parent: inner, Ints: []int{count, blocklen, stride}})
}

func (w *Wrapper) TypeIndexed(blocklens, displs []int, inner abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.TypeIndexed(blocklens, displs, inner)
	ints := append(append([]int(nil), blocklens...), displs...)
	return w.created(v, err, Event{Op: EvTypeIndexed, Parent: inner, Ints: ints})
}

func (w *Wrapper) TypeCreateStruct(blocklens, displs []int, typs []abi.Handle) (abi.Handle, error) {
	v, err := w.Translator.TypeCreateStruct(blocklens, displs, typs)
	ints := append(append([]int(nil), blocklens...), displs...)
	return w.created(v, err, Event{Op: EvTypeStruct, Ints: ints, Handles: append([]abi.Handle(nil), typs...)})
}

func (w *Wrapper) TypeCommit(dtype abi.Handle) error {
	return w.changed(w.Translator.TypeCommit(dtype), EvTypeCommit, dtype)
}

func (w *Wrapper) TypeFree(dtype abi.Handle) error {
	return w.changed(w.Translator.TypeFree(dtype), EvTypeFree, dtype)
}

func (w *Wrapper) OpCreate(name string, commute bool) (abi.Handle, error) {
	v, err := w.Translator.OpCreate(name, commute)
	return w.created(v, err, Event{Op: EvOpCreate, Name: name, Flag: commute})
}

func (w *Wrapper) OpFree(op abi.Handle) error {
	return w.changed(w.Translator.OpFree(op), EvOpFree, op)
}

// The ULFM (MPIX_*) surface. Revocation, agreement and failure
// acknowledgement are stateless from the checkpointer's point of view
// and pass straight through the translator. The handle-creating calls —
// CommShrink and CommFailureGetAcked — are refused: a shrunken
// communicator's recipe is a function of which ranks died, which no
// restart replay can reproduce, so ULFM in-place recovery and MANA
// checkpoint/restart are alternative fault-tolerance paths, not
// composable ones (core enforces the same split: shrink-mode recovery
// runs checkpointer-free stacks).

func (w *Wrapper) CommShrink(comm abi.Handle) (abi.Handle, error) {
	return abi.CommNull, abi.Errorf(abi.ErrUnsupported, "mana",
		"MPIX_Comm_shrink under a checkpointing wrapper: a shrunken communicator has no replayable recipe; use the checkpoint-free ULFM stack")
}

func (w *Wrapper) CommFailureGetAcked(comm abi.Handle) (abi.Handle, error) {
	return abi.GroupNull, abi.Errorf(abi.ErrUnsupported, "mana",
		"MPIX_Comm_failure_get_acked under a checkpointing wrapper: acknowledged-failure groups have no replayable recipe")
}
