package mana

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/abi"
	"repro/internal/canon"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// overShim builds rank r's MANA wrapper over a Mukautuva shim on the
// given implementation, as core does.
func overShim(impl string, world *fabric.World, r int) (*Wrapper, error) {
	im, err := mukautuva.Native(impl)
	if err != nil {
		return nil, err
	}
	shim := mukautuva.New(im.Init(world, r), im.Dialect, world.Endpoint(r).Clock())
	return NewWrapper(shim, abi.Std, world, r, KernelPre5_9), nil
}

// runWrapped runs fn per rank with a MANA wrapper over a Mukautuva shim on
// the given implementation.
func runWrapped(t testing.TB, impl string, n int, fn func(w *Wrapper, rank int) error) {
	t.Helper()
	world := fabrictest.World(t, n)
	fabrictest.Run(t, world, func(r int) error {
		w, err := overShim(impl, world, r)
		if err != nil {
			return err
		}
		return fn(w, r)
	})
}

func TestWrapperPresentsStandardABI(t *testing.T) {
	runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
		if w.Lookup(abi.SymCommWorld) != abi.CommWorld {
			return fmt.Errorf("Lookup not standard")
		}
		if w.LookupInt(abi.IntAnySource) != abi.AnySource {
			return fmt.Errorf("LookupInt not standard")
		}
		if w.ImplName() != "mana+mpich" {
			return fmt.Errorf("ImplName = %q", w.ImplName())
		}
		return nil
	})
}

func TestVidsAllocatedForDynamicObjects(t *testing.T) {
	runWrapped(t, "openmpi", 2, func(w *Wrapper, rank int) error {
		dup, err := w.CommDup(abi.CommWorld)
		if err != nil {
			return err
		}
		if dup.Payload() < vidBase {
			return fmt.Errorf("dup handle %v is not a vid", dup)
		}
		vec, err := w.TypeVector(2, 1, 2, abi.TypeInt64)
		if err != nil {
			return err
		}
		if vec.Payload() < vidBase {
			return fmt.Errorf("type handle %v is not a vid", vec)
		}
		if err := w.TypeCommit(vec); err != nil {
			return err
		}
		sz, err := w.TypeSize(vec)
		if err != nil || sz != 16 {
			return fmt.Errorf("TypeSize through vid = %d, %v", sz, err)
		}
		// The event log must have recorded both creations plus the commit.
		if len(w.log) != 3 {
			return fmt.Errorf("event log has %d entries, want 3", len(w.log))
		}
		return nil
	})
}

func TestSendRecvCountersTrack(t *testing.T) {
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 0 {
			for i := 0; i < 3; i++ {
				if err := w.Send([]byte{1}, 1, bt, 1, 5, abi.CommWorld); err != nil {
					return err
				}
			}
			if w.sent[abi.CommWorld][1] != 3 {
				return fmt.Errorf("sent counter = %d, want 3", w.sent[abi.CommWorld][1])
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < 3; i++ {
			if err := w.Recv(buf, 1, bt, abi.AnySource, abi.AnyTag, abi.CommWorld, nil); err != nil {
				return err
			}
		}
		if w.recvd[abi.CommWorld][0] != 3 {
			return fmt.Errorf("recvd counter = %d, want 3", w.recvd[abi.CommWorld][0])
		}
		return nil
	})
}

func TestDrainCapturesInFlight(t *testing.T) {
	t.Run("two communicators", drainTwoCommunicators)
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		// Rank 0 sends a message rank 1 never receives before the drain.
		if rank == 0 {
			if err := w.Send([]byte{42, 43}, 2, bt, 1, 9, abi.CommWorld); err != nil {
				return err
			}
		}
		blob, err := w.PreCheckpoint()
		if err != nil {
			return err
		}
		if len(blob) == 0 {
			return fmt.Errorf("empty blob")
		}
		if rank == 1 {
			q := w.buffered[abi.CommWorld]
			if len(q) != 1 {
				return fmt.Errorf("buffered %d messages, want 1", len(q))
			}
			d := q[0]
			if d.Source != 0 || d.Tag != 9 || len(d.Data) != 2 || d.Data[0] != 42 {
				return fmt.Errorf("drained message wrong: %+v", d)
			}
			// The drained message is served to a later Recv with correct
			// status.
			buf := make([]byte, 2)
			var st abi.Status
			if err := w.Recv(buf, 2, bt, 0, 9, abi.CommWorld, &st); err != nil {
				return err
			}
			if buf[0] != 42 || buf[1] != 43 {
				return fmt.Errorf("served payload = %v", buf)
			}
			if st.Source != 0 || st.Tag != 9 || st.CountBytes != 2 {
				return fmt.Errorf("served status = %+v", st)
			}
			if len(w.buffered[abi.CommWorld]) != 0 {
				return fmt.Errorf("buffer not consumed")
			}
		}
		return nil
	})
}

// drainTwoCommunicators leaves a message in flight on each of two
// communicators: the drain receives them in ascending vid order whatever
// Go's map order, so the receiver's clock (each drained receive advances
// it to the message's arrival) and its blob are the same on every run.
// The later communicator's message arrives first, so the other order
// would leave a different clock.
func drainTwoCommunicators(t *testing.T) {
	type outcome struct {
		clock simnet.Time
		blob  []byte
	}
	var first outcome
	for run := 0; run < 12; run++ {
		world := fabrictest.World(t, 2)
		var got outcome
		fabrictest.Run(t, world, func(r int) error {
			w, err := overShim("mpich", world, r)
			if err != nil {
				return err
			}
			dup, err := w.CommDup(abi.CommWorld)
			if err != nil {
				return err
			}
			if dup <= abi.CommWorld {
				return fmt.Errorf("dup vid %v does not sort after COMM_WORLD", dup)
			}
			if r == 0 {
				if err := w.Send([]byte{1}, 1, abi.TypeByte, 1, 5, dup); err != nil {
					return err
				}
				world.Endpoint(0).Clock().Advance(time.Millisecond)
				if err := w.Send([]byte{2}, 1, abi.TypeByte, 1, 5, abi.CommWorld); err != nil {
					return err
				}
			}
			blob, err := w.PreCheckpoint()
			if err != nil {
				return err
			}
			if r == 1 {
				if len(w.buffered[dup]) != 1 || len(w.buffered[abi.CommWorld]) != 1 {
					return fmt.Errorf("buffered %v", w.buffered)
				}
				got = outcome{world.Endpoint(1).Clock().Now(), blob}
			}
			return nil
		})
		if run == 0 {
			first = got
			continue
		}
		if got.clock != first.clock || !bytes.Equal(got.blob, first.blob) {
			t.Fatalf("run %d: clock %v, %d-byte blob; run 0: clock %v, %d-byte blob",
				run, got.clock, len(got.blob), first.clock, len(first.blob))
		}
	}
}

func TestDrainRefusesOutstandingRequests(t *testing.T) {
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 1 {
			// Leave an open irecv and attempt to checkpoint: must refuse
			// before any collective exchange happens.
			buf := make([]byte, 1)
			req, err := w.Irecv(buf, 1, bt, 0, 1, abi.CommWorld)
			if err != nil {
				return err
			}
			if _, err := w.PreCheckpoint(); err == nil {
				return fmt.Errorf("drain with outstanding request succeeded")
			} else if abi.ClassOf(err) != abi.ErrPending {
				return fmt.Errorf("error class = %v", abi.ClassOf(err))
			}
			// Complete the request; then the drain is legal.
			if err := w.Wait(req, nil); err != nil {
				return err
			}
			if w.Outstanding() != 0 {
				return fmt.Errorf("outstanding = %d after wait", w.Outstanding())
			}
		} else {
			if err := w.Send([]byte{7}, 1, bt, 1, 1, abi.CommWorld); err != nil {
				return err
			}
		}
		// Both ranks run the (collective) drain; it must now succeed.
		if _, err := w.PreCheckpoint(); err != nil {
			return err
		}
		return nil
	})
}

func TestBufferedProbe(t *testing.T) {
	runWrapped(t, "openmpi", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 0 {
			if err := w.Send([]byte{1, 2, 3}, 3, bt, 1, 4, abi.CommWorld); err != nil {
				return err
			}
			if err := w.Send([]byte{9, 8, 7, 6}, 4, bt, 1, 5, abi.CommWorld); err != nil {
				return err
			}
		}
		// The drain is collective: both ranks participate.
		if _, err := w.PreCheckpoint(); err != nil {
			return err
		}
		if rank == 0 {
			return nil
		}
		// Probe must see the buffered message without consuming it.
		var st abi.Status
		if err := w.Probe(abi.AnySource, abi.AnyTag, abi.CommWorld, &st); err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 4 || st.CountBytes != 3 {
			return fmt.Errorf("probe status = %+v", st)
		}
		found, err := w.Iprobe(0, 4, abi.CommWorld, &st)
		if err != nil || !found {
			return fmt.Errorf("iprobe = %v %v", found, err)
		}
		if len(w.buffered[abi.CommWorld]) != 2 {
			return fmt.Errorf("probe consumed the buffer")
		}
		// The drain counted both messages; serving them from the buffer
		// must not count them again.
		if got := w.recvd[abi.CommWorld][0]; got != 2 {
			return fmt.Errorf("recvd after the drain = %d, want 2", got)
		}
		// A nonblocking receive matched from the buffer completes with the
		// original envelope, through Wait for one message and Test for the
		// other.
		check := func(how string, st abi.Status, got []byte, tag int32, want []byte) error {
			if st.Source != 0 || st.Tag != tag || st.CountBytes != uint64(len(want)) || !bytes.Equal(got, want) {
				return fmt.Errorf("%s: status %+v, bytes %v; want source 0, tag %d, %v", how, st, got, tag, want)
			}
			return nil
		}
		buf := make([]byte, 3)
		req, err := w.Irecv(buf, 3, bt, 0, 4, abi.CommWorld)
		if err != nil {
			return err
		}
		st = abi.Status{}
		if err := w.Wait(req, &st); err != nil {
			return err
		}
		if err := check("Irecv+Wait", st, buf, 4, []byte{1, 2, 3}); err != nil {
			return err
		}
		buf = make([]byte, 4)
		req, err = w.Irecv(buf, 4, bt, abi.AnySource, abi.AnyTag, abi.CommWorld)
		if err != nil {
			return err
		}
		st = abi.Status{}
		done, err := w.Test(req, &st)
		if err != nil || !done {
			return fmt.Errorf("Test of a buffered receive = %v %v, want done", done, err)
		}
		if err := check("Irecv+Test", st, buf, 5, []byte{9, 8, 7, 6}); err != nil {
			return err
		}
		if n := len(w.buffered[abi.CommWorld]); n != 0 {
			return fmt.Errorf("%d buffered messages left", n)
		}
		if got := w.recvd[abi.CommWorld][0]; got != 2 {
			return fmt.Errorf("recvd after the buffered receives = %d, want 2", got)
		}
		if n := w.Outstanding(); n != 0 {
			return fmt.Errorf("outstanding = %d after both completions", n)
		}
		return nil
	})
}

// TestTruncatedReceiveCompletes: a receive that ends in MPI_ERR_TRUNCATE
// has consumed its message and freed its request, over a native binding
// and over the shim alike. MANA must count it, or the next drain probes
// for a message that is gone and the world hangs, and must release its
// request, or the drain refuses with MPI_ERR_PENDING.
func TestTruncatedReceiveCompletes(t *testing.T) {
	lowers := []struct {
		name  string
		build func(world *fabric.World, r int) (*Wrapper, error)
	}{
		{"native", func(world *fabric.World, r int) (*Wrapper, error) {
			return NewWrapper(mpich.Impl.Init(world, r), mpich.Dialect, world, r, KernelPre5_9), nil
		}},
		{"mukautuva", func(world *fabric.World, r int) (*Wrapper, error) {
			return overShim("mpich", world, r)
		}},
	}
	recvs := []struct {
		name string
		recv func(w *Wrapper, buf []byte) error
	}{
		{"Recv", func(w *Wrapper, buf []byte) error {
			var st abi.Status
			err := w.Recv(buf, len(buf), abi.TypeByte, 0, 3, abi.CommWorld, &st)
			if st.Source != 0 || st.Error != int32(abi.ErrTruncate) {
				return fmt.Errorf("status %+v, want source 0 and the standard truncate class", st)
			}
			return err
		}},
		{"Irecv+Wait", func(w *Wrapper, buf []byte) error {
			req, err := w.Irecv(buf, len(buf), abi.TypeByte, 0, 3, abi.CommWorld)
			if err != nil {
				return err
			}
			return w.Wait(req, nil)
		}},
	}
	for _, lower := range lowers {
		for _, rc := range recvs {
			t.Run(lower.name+"/"+rc.name, func(t *testing.T) {
				world := fabrictest.World(t, 2)
				fabrictest.Run(t, world, func(r int) error {
					w, err := lower.build(world, r)
					if err != nil {
						return err
					}
					if r == 0 {
						if err := w.Send(make([]byte, 8), 8, abi.TypeByte, 1, 3, abi.CommWorld); err != nil {
							return err
						}
					} else {
						if err := rc.recv(w, make([]byte, 4)); abi.ClassOf(err) != abi.ErrTruncate {
							return fmt.Errorf("8 bytes into 4: %v, want MPI_ERR_TRUNCATE", err)
						}
						if got := w.recvd[abi.CommWorld][0]; got != 1 {
							return fmt.Errorf("recvd = %d after the truncated receive, want 1", got)
						}
					}
					if _, err := w.PreCheckpoint(); err != nil {
						return err
					}
					if n := w.Outstanding(); n != 0 {
						return fmt.Errorf("outstanding = %d after the drain", n)
					}
					if n := len(w.buffered[abi.CommWorld]); n != 0 {
						return fmt.Errorf("the drain buffered %d messages, want none", n)
					}
					return nil
				})
			})
		}
	}
}

// replayNetSum is the user op the replay net creates and reduces with.
const replayNetSum = "mana.test.replaysum"

// netObjects are the objects a rank of the replay net holds at its
// checkpoint: communicators (CommNull where the rank is no member),
// groups, datatypes and one user op.
type netObjects struct {
	comms, groups, types []abi.Handle
	op                   abi.Handle
}

// buildEveryEvent issues every recorded call on a 3-rank world: a split
// rank 2 leaves with MPI_UNDEFINED, a CommCreate rank 1 is not in, a
// GroupExcl that yields MPI_GROUP_EMPTY, and a free of each class.
func buildEveryEvent(w *Wrapper, r int) (netObjects, error) {
	var err error
	first := func(e error) {
		if err == nil {
			err = e
		}
	}
	h := func(v abi.Handle, e error) abi.Handle {
		first(e)
		return v
	}
	first(w.CommFree(h(w.CommDup(abi.CommWorld))))
	dup := h(w.CommDup(abi.CommWorld))
	color := 0
	if r == 2 {
		color = abi.Undefined
	}
	split := h(w.CommSplit(dup, color, -r))
	g := h(w.CommGroup(dup))
	first(w.GroupFree(h(w.CommGroup(abi.CommWorld))))
	incl := h(w.GroupIncl(g, []int{2, 0}))
	empty := h(w.GroupExcl(g, []int{0, 1, 2}))
	created := h(w.CommCreate(dup, incl))
	first(w.TypeFree(h(w.TypeContiguous(4, abi.TypeByte))))
	contig := h(w.TypeContiguous(2, abi.TypeInt32))
	vec := h(w.TypeVector(3, 1, 2, abi.TypeInt32))
	idx := h(w.TypeIndexed([]int{1, 2}, []int{0, 3}, abi.TypeInt32))
	st := h(w.TypeCreateStruct([]int{1, 1}, []int{0, 8}, []abi.Handle{abi.TypeInt32, abi.TypeInt64}))
	for _, t := range []abi.Handle{contig, vec, idx, st} {
		first(w.TypeCommit(t))
	}
	first(w.OpFree(h(w.OpCreate(replayNetSum, false))))
	op := h(w.OpCreate(replayNetSum, true))
	if err == nil && empty != abi.GroupEmpty {
		err = fmt.Errorf("GroupExcl of every rank = %v, want MPI_GROUP_EMPTY", empty)
	}
	if want := r == 2; err == nil && (split == abi.CommNull) != want {
		err = fmt.Errorf("split = %v on rank %d", split, r)
	}
	if want := r == 1; err == nil && (created == abi.CommNull) != want {
		err = fmt.Errorf("CommCreate = %v on rank %d", created, r)
	}
	return netObjects{
		comms:  []abi.Handle{dup, split, created},
		groups: []abi.Handle{g, incl, empty},
		types:  []abi.Handle{contig, vec, idx, st},
		op:     op,
	}, err
}

// answers is how each object answers: comm size and rank, group size and
// rank, type size and extent, and a user-op Allreduce on every
// communicator the rank is a member of.
func (o netObjects) answers(w *Wrapper, r int) ([]string, error) {
	var out []string
	var err error
	say := func(format string) func(int, error) {
		return func(v int, e error) {
			if err == nil {
				err = e
			}
			out = append(out, fmt.Sprintf(format, v))
		}
	}
	for _, c := range o.comms {
		if c == abi.CommNull {
			out = append(out, "no member")
			continue
		}
		say("comm size %d")(w.CommSize(c))
		say("comm rank %d")(w.CommRank(c))
		rb := make([]byte, 8)
		e := w.Allreduce(abi.Int64Bytes([]int64{int64(r + 1)}), rb, 1, abi.TypeInt64, o.op, c)
		say("allreduce %d")(int(abi.Int64sOf(rb)[0]), e)
	}
	for _, g := range o.groups {
		say("group size %d")(w.GroupSize(g))
		say("group rank %d")(w.GroupRank(g))
	}
	for _, t := range o.types {
		say("type size %d")(w.TypeSize(t))
		say("type extent %d")(w.TypeExtent(t))
	}
	return out, err
}

// TestBlobRoundTripAndReplay is the replay net: every recorded operation,
// checkpointed under MPICH and restored under Open MPI, both through
// Mukautuva. Every live object must answer as it did before the
// checkpoint, and the rebuilt log must equal the image's.
func TestBlobRoundTripAndReplay(t *testing.T) {
	if err := ops.RegisterUser(replayNetSum, true,
		func(acc, in []byte, k types.Kind, count int) { _ = ops.Apply(ops.OpSum, k, acc, in, count) }); err != nil {
		t.Fatal(err)
	}
	const n = 3
	blobs := make([][]byte, n)
	objs := make([]netObjects, n)
	before := make([][]string, n)
	world1 := fabrictest.World(t, n)
	fabrictest.Run(t, world1, func(r int) error {
		w, err := overShim("mpich", world1, r)
		if err != nil {
			return err
		}
		if objs[r], err = buildEveryEvent(w, r); err != nil {
			return err
		}
		seen := map[EvOp]bool{}
		for _, ev := range w.log {
			seen[ev.Op] = true
		}
		if len(seen) != len(evNames) {
			return fmt.Errorf("the log records %d of the %d operations", len(seen), len(evNames))
		}
		if before[r], err = objs[r].answers(w, r); err != nil {
			return err
		}
		blobs[r], err = w.PreCheckpoint()
		return err
	})
	if t.Failed() {
		t.FailNow()
	}

	world2 := fabrictest.World(t, n)
	fabrictest.Run(t, world2, func(r int) error {
		w, err := overShim("openmpi", world2, r)
		if err != nil {
			return err
		}
		if err := w.Restore(blobs[r]); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		image, err := DecodeBlob(blobs[r])
		if err != nil {
			return err
		}
		if len(w.log) != len(image.Log) {
			return fmt.Errorf("rebuilt log has %d events, the image %d", len(w.log), len(image.Log))
		}
		for i := range image.Log {
			if got, want := fmt.Sprintf("%+v", w.log[i]), fmt.Sprintf("%+v", image.Log[i]); got != want {
				return fmt.Errorf("rebuilt event %d = %s, the image's %s", i, got, want)
			}
		}
		after, err := objs[r].answers(w, r)
		if err != nil {
			return fmt.Errorf("after restore: %w", err)
		}
		if fmt.Sprint(after) != fmt.Sprint(before[r]) {
			return fmt.Errorf("after restore the objects answer\n%v\nbefore the checkpoint\n%v", after, before[r])
		}
		return nil
	})
}

// replayImage is a real one-rank image under mpich+mukautuva+mana: a
// duplicated communicator, a split of it, and a committed vector type.
func replayImage(t testing.TB) Blob {
	var image Blob
	runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
		dup, err := w.CommDup(abi.CommWorld)
		if err != nil {
			return err
		}
		if _, err := w.CommSplit(dup, 0, 0); err != nil {
			return err
		}
		vec, err := w.TypeVector(2, 1, 2, abi.TypeInt32)
		if err != nil {
			return err
		}
		if err := w.TypeCommit(vec); err != nil {
			return err
		}
		raw, err := w.PreCheckpoint()
		if err == nil {
			image, err = DecodeBlob(raw)
		}
		return err
	})
	if t.Failed() {
		t.FailNow()
	}
	return image
}

// malformedEdit is an edit to replayImage's log that replay must refuse,
// naming the event at index event.
type malformedEdit struct {
	name  string
	event int
	edit  func([]Event) []Event
}

func malformedEdits(image Blob) []malformedEdit {
	next := abi.MakeHandle(abi.ClassType, image.NextVid+1)
	appended := func(ev Event) func([]Event) []Event {
		return func(log []Event) []Event { return append(log, ev) }
	}
	return []malformedEdit{
		{"split without ints", 1, func(log []Event) []Event { log[1].Ints = nil; return log }},
		{"vector with one int", 2, func(log []Event) []Event { log[2].Ints = []int{2}; return log }},
		{"contiguous without ints", 4, appended(Event{Op: EvTypeContig, Vid: next, Parent: abi.TypeInt32})},
		{"indexed with odd ints", 4, appended(Event{Op: EvTypeIndexed, Vid: next, Parent: abi.TypeInt32, Ints: []int{1, 0, 2}})},
		{"struct with odd ints", 4, appended(Event{Op: EvTypeStruct, Vid: next, Ints: []int{1, 0, 8},
			Handles: []abi.Handle{abi.TypeInt32}})},
		{"struct with too few handles", 4, appended(Event{Op: EvTypeStruct, Vid: next, Ints: []int{1, 1, 0, 8},
			Handles: []abi.Handle{abi.TypeInt32}})},
		{"unknown op", 4, appended(Event{Op: EvOp(len(evNames)), Vid: next})},
		{"corrupted comm gid", 1, func(log []Event) []Event { log[1].GID ^= 1; return log }},
		{"vids out of mint order", 0, func(log []Event) []Event {
			log[0].Vid, log[1].Vid = log[1].Vid, log[0].Vid
			return log
		}},
	}
}

// apply returns the encoded image with the edit made to a copy of its log.
func (m malformedEdit) apply(t testing.TB, image Blob) ([]byte, Event) {
	bad := image
	bad.Log = m.edit(slices.Clone(image.Log))
	var raw bytes.Buffer
	if err := canon.Encode(&raw, bad); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes(), bad.Log[m.event]
}

// TestReplayRejectsMalformedEvents: an image is a trust boundary, so an
// event that does not fit its call, or that replay does not rebuild as
// recorded, fails the restore with an error naming the event instead of
// panicking or restoring something else.
func TestReplayRejectsMalformedEvents(t *testing.T) {
	image := replayImage(t)
	for _, tc := range malformedEdits(image) {
		t.Run(tc.name, func(t *testing.T) {
			raw, ev := tc.apply(t, image)
			runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
				err := w.Restore(raw)
				if want := fmt.Sprintf("event %d (%v vid=%v)", tc.event, ev.Op, ev.Vid); err == nil || !strings.Contains(err.Error(), want) {
					return fmt.Errorf("Restore = %v, want an error naming %s", err, want)
				}
				return nil
			})
		})
	}
}

// FuzzBlobRestore: a plugin blob crosses a trust boundary (it is read
// back from an image), so Restore of any bytes on a fresh one-rank
// wrapper returns an error or succeeds; it never panics or hangs. Seeds:
// replayImage and each of its malformed edits.
func FuzzBlobRestore(f *testing.F) {
	image := replayImage(f)
	var raw bytes.Buffer
	if err := canon.Encode(&raw, image); err != nil {
		f.Fatal(err)
	}
	f.Add(raw.Bytes())
	for _, tc := range malformedEdits(image) {
		bad, _ := tc.apply(f, image)
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
			_ = w.Restore(blob)
			return nil
		})
	})
}

func TestKernelCostModel(t *testing.T) {
	old := KernelPre5_9.CallCost()
	modern := Kernel5_9Plus.CallCost()
	if old <= modern {
		t.Fatalf("pre-5.9 cost %v must exceed 5.9+ cost %v", old, modern)
	}
	if old < 5*time.Microsecond || old > 20*time.Microsecond {
		t.Fatalf("pre-5.9 per-call cost %v outside the calibrated range", old)
	}
	if KernelPre5_9.String() == KernelVersion(1).String() {
		t.Fatal("kernel names collide")
	}
}

// Property: commGID is deterministic and discriminates parents, ordinals
// and colors.
func TestCommGIDProperty(t *testing.T) {
	f := func(parent uint64, ord uint32, color int16) bool {
		a := commGID(parent, EvCommSplit, ord, int(color))
		b := commGID(parent, EvCommSplit, ord, int(color))
		if a != b {
			return false
		}
		if commGID(parent, EvCommSplit, ord, int(color)) ==
			commGID(parent, EvCommSplit, ord+1, int(color)) {
			return false
		}
		if commGID(parent, EvCommSplit, ord, int(color)) ==
			commGID(parent+1, EvCommSplit, ord, int(color)) {
			return false
		}
		return commGID(parent, EvCommDup, ord, 0) != commGID(parent, EvCommCreate, ord, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserOpSurvivesBlob(t *testing.T) {
	if err := ops.RegisterUser("mana.test.sum", true,
		func(acc, in []byte, k types.Kind, count int) {
			_ = ops.Apply(ops.OpSum, k, acc, in, count)
		}); err != nil {
		t.Fatal(err)
	}
	runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
		op, err := w.OpCreate("mana.test.sum", true)
		if err != nil {
			return err
		}
		rb := make([]byte, 8)
		if err := w.Allreduce(abi.Int64Bytes([]int64{5}), rb, 1, abi.TypeInt64, op, abi.CommWorld); err != nil {
			return err
		}
		if got := abi.Int64sOf(rb)[0]; got != 5 {
			return fmt.Errorf("user op result = %d", got)
		}
		return nil
	})
}
