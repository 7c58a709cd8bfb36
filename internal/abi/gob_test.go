package abi_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/mana"
)

// freshGob is what WriteGob must reproduce byte for byte.
func freshGob(t testing.TB, v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func writeGob(t testing.TB, v any) []byte {
	var b bytes.Buffer
	if err := abi.WriteGob(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// seededBlob is a MANA blob with at most one key per map, so that gob's
// map order, which is random, cannot make two encodings differ.
func seededBlob(r *rand.Rand) mana.Blob {
	b := mana.Blob{NextVid: r.Uint64()}
	for i := r.Intn(4); i > 0; i-- {
		ev := mana.Event{Op: mana.EvOp(r.Intn(8)), Vid: abi.Handle(r.Uint64()), Name: fmt.Sprint(r.Intn(100)), Flag: r.Intn(2) == 0, GID: r.Uint64()}
		if r.Intn(2) == 0 {
			ev.Ints = []int{r.Intn(9) - 4, r.Int()}
			ev.Handles = []abi.Handle{abi.Handle(r.Uint64())}
		}
		b.Log = append(b.Log, ev)
	}
	comm := abi.Handle(r.Uint64())
	switch r.Intn(3) {
	case 0: // nil maps
	case 1:
		b.Sent = map[abi.Handle]map[int]uint64{}
		b.Recvd = map[abi.Handle]map[int]uint64{comm: {}}
		b.Buffered = map[abi.Handle][]mana.Drained{}
	case 2:
		b.Sent = map[abi.Handle]map[int]uint64{comm: {r.Intn(64): r.Uint64()}}
		b.Recvd = map[abi.Handle]map[int]uint64{comm: {r.Intn(64): uint64(r.Intn(1000))}}
		b.Buffered = map[abi.Handle][]mana.Drained{comm: {
			{Source: r.Intn(8), Tag: r.Int31(), Data: []byte{byte(r.Int())}},
			{Source: r.Intn(8), Data: nil},
			{Source: r.Intn(8), Data: make([]byte, r.Intn(300))},
		}}
	}
	return b
}

func seededCoMD(r *rand.Rand) *comd.CoMD {
	c := comd.New()
	c.Iter, c.Seed, c.KineticE = r.Intn(300), r.Int63(), r.NormFloat64()
	for i := r.Intn(5) * 7; i > 0; i-- {
		c.Atoms = append(c.Atoms, comd.Particle{X: r.Float64(), Y: -r.Float64(), Z: r.NormFloat64(), Vx: r.ExpFloat64()})
	}
	return c
}

// seededWave is the scalar part CheckpointTo gob-encodes: its two time
// levels travel as raw blocks instead.
func seededWave(r *rand.Rand) *wavempi.Wave {
	w := wavempi.New()
	w.Iter, w.Seed, w.Checked = r.Intn(400), r.Int63(), r.NormFloat64()
	return w
}

// gobProbe and gobBoxed are first encoded by the concurrent test, so
// several goroutines prime their encoders at once.
type gobProbe struct {
	A []int
	M map[string][2]float32
	P *gobProbe
}

// gobBoxed's descriptors depend on the value: an interface field's concrete
// type travels with it, so no prefix can be derived once.
type gobBoxed struct{ V any }

type gobLeft struct{ L int }
type gobRight struct{ R []string }

func init() {
	gob.Register(gobLeft{})
	gob.Register(gobRight{})
}

func seededValues(seed int64) []any {
	r := rand.New(rand.NewSource(seed))
	return []any{
		seededBlob(r), seededCoMD(r), seededWave(r),
		&gobProbe{A: []int{r.Int()}, M: map[string][2]float32{"k": {r.Float32(), 1}}, P: &gobProbe{}},
		gobBoxed{gobLeft{r.Int()}}, gobBoxed{gobRight{[]string{"x"}}}, &gobBoxed{},
	}
}

// TestWriteGobMatchesFreshEncoder holds WriteGob to what a fresh encoder
// writes, for MANA blobs, CoMD programs, Wave's scalar state and types with
// an interface reachable, with several goroutines priming and encoding at
// once.
func TestWriteGobMatchesFreshEncoder(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := int64(0); seed < 25; seed++ {
				for i, v := range seededValues(int64(g)*1000 + seed) {
					if got, want := writeGob(t, v), freshGob(t, v); !bytes.Equal(got, want) {
						t.Errorf("goroutine %d seed %d value %d (%T): WriteGob wrote %d bytes, a fresh encoder %d, or other bytes",
							g, seed, i, v, len(got), len(want))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Empty and nil.
	for _, v := range []any{mana.Blob{}, &mana.Blob{Log: []mana.Event{}}, &comd.CoMD{}, &wavempi.Wave{}} {
		if got, want := writeGob(t, v), freshGob(t, v); !bytes.Equal(got, want) {
			t.Errorf("%#v: WriteGob and a fresh encoder differ", v)
		}
	}
	var b bytes.Buffer
	if err := abi.WriteGob(&b, nil); err == nil || b.Len() != 0 {
		t.Errorf("WriteGob(nil) = %v after %d bytes, want an error and nothing written", err, b.Len())
	}
}

// Maps with several keys encode in gob's random map order, so bytes can
// differ between any two encoders; lengths and decoded values cannot.
func TestWriteGobMultiKeyMaps(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	blob := mana.Blob{Sent: map[abi.Handle]map[int]uint64{}, Buffered: map[abi.Handle][]mana.Drained{}}
	for c := 0; c < 4; c++ {
		peers := map[int]uint64{}
		for p := 0; p < 5; p++ {
			peers[p] = r.Uint64()
		}
		blob.Sent[abi.Handle(c+1)] = peers
		blob.Buffered[abi.Handle(c+1)] = []mana.Drained{{Source: c, Data: []byte{byte(c)}}}
	}
	got, want := writeGob(t, blob), freshGob(t, blob)
	if len(got) != len(want) {
		t.Fatalf("WriteGob wrote %d bytes, a fresh encoder %d", len(got), len(want))
	}
	gb, err := mana.DecodeBlob(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := mana.DecodeBlob(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gb, wb) || !reflect.DeepEqual(gb, blob) {
		t.Fatalf("decoded blobs differ:\n%+v\n%+v", gb, wb)
	}
}
