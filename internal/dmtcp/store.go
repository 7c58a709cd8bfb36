package dmtcp

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ImageStore holds checkpoint image sets. A set is one coordinated
// checkpoint — its Meta plus one image per rank — named by a
// slash-separated key; periodic checkpoints name theirs PeriodicDir(root,
// step). Both backends hold the same container bytes (image.go); only
// the sink differs. Dir keeps sets as directories on disk, for manactl
// and anything a human inspects. Mem keeps them in memory, for a job
// whose images never outlive it: a scenario cell, a test.
type ImageStore interface {
	// PutRank stores rank's image in set, replacing any earlier one;
	// write streams the whole container. A write that fails leaves no
	// readable image for the rank.
	PutRank(set string, rank int, write func(io.Writer) error) error
	// Rank returns rank's image bytes as stored. The caller must not
	// modify them.
	Rank(set string, rank int) ([]byte, error)
	// PutMeta records the set's descriptor.
	PutMeta(set string, meta Meta) error
	// Meta returns the set's descriptor.
	Meta(set string) (Meta, error)
	// Sets lists the sets named root/<name>, ascending.
	Sets(root string) []string
}

// ReadRank loads rank's image of set from s. PluginBlob and ProgState
// alias the stored bytes.
func ReadRank(s ImageStore, set string, rank int) (RankImage, error) {
	data, err := s.Rank(set, rank)
	if err != nil {
		return RankImage{}, err
	}
	img, err := decodeRankImage(data)
	if err != nil {
		return RankImage{}, fmt.Errorf("%w (rank %d in %s)", err, rank, set)
	}
	if img.Rank != rank {
		return RankImage{}, fmt.Errorf("dmtcp: image rank %d does not match file for rank %d", img.Rank, rank)
	}
	return img, nil
}

// PeriodicDir returns the name of the periodic checkpoint taken at the
// given step under root.
func PeriodicDir(root string, step uint64) string {
	return filepath.Join(root, fmt.Sprintf("step_%06d", step))
}

// LatestComplete scans root in s for periodic image sets and returns the
// most recent complete one: meta present, the expected rank count
// (nranks; 0 accepts any), and every rank's image decoding (magic,
// version, section lengths against the image size, end marker) at the
// set's step. A checkpoint interrupted by the failure it was meant to
// survive leaves a missing or truncated image, which the scan skips —
// recovery falls back to the set before it.
func LatestComplete(s ImageStore, root string, nranks int) (set string, meta Meta, ok bool) {
	sets := s.Sets(root)
	// Ascending names; walk backwards for the newest step first.
	for i := len(sets) - 1; i >= 0; i-- {
		set := sets[i]
		if !isPeriodic(set) {
			continue
		}
		m, err := s.Meta(set)
		if err != nil || (nranks > 0 && m.NumRanks != nranks) {
			continue
		}
		if complete(m, func(r int) ([]byte, error) { return s.Rank(set, r) }) {
			return set, m, true
		}
	}
	return "", Meta{}, false
}

// complete reports whether every one of meta's ranks has an image (read
// by rank) that decodes as that rank's, at meta's step.
func complete(meta Meta, rank func(int) ([]byte, error)) bool {
	for r := 0; r < meta.NumRanks; r++ {
		data, err := rank(r)
		if err != nil {
			return false
		}
		if img, err := decodeRankImage(data); err != nil || img.Rank != r || img.Step != meta.Step {
			return false
		}
	}
	return true
}

// isPeriodic reports whether set is named like a PeriodicDir set.
func isPeriodic(set string) bool { return strings.HasPrefix(filepath.Base(set), "step_") }

// --- the directory backend ---

// Dir is the directory backend: set names are directories under the one
// Dir names ("" leaves them relative to the working directory), each
// holding meta.gob and one rank_NNNN.img per rank.
type Dir string

func (d Dir) path(set string) string { return filepath.Join(string(d), set) }

// imageWriters pools the file write buffers: a rank writes one image per
// checkpoint and, under periodic checkpointing, one checkpoint per step.
var imageWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// PutRank writes rank's image file. A failure leaves a file without a
// valid trailer, which every reader rejects.
func (d Dir) PutRank(set string, rank int, write func(io.Writer) error) error {
	dir := d.path(set)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dmtcp: creating image dir: %w", err)
	}
	f, err := os.Create(rankImagePath(dir, rank))
	if err != nil {
		return fmt.Errorf("dmtcp: creating rank image: %w", err)
	}
	defer f.Close()
	bw := imageWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	if err = write(bw); err == nil {
		if err = bw.Flush(); err != nil {
			err = fmt.Errorf("dmtcp: writing rank image: %w", err)
		}
	}
	bw.Reset(nil) // do not pin the file while pooled
	imageWriters.Put(bw)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dmtcp: closing rank image: %w", err)
	}
	return nil
}

// Rank reads rank's whole image file.
func (d Dir) Rank(set string, rank int) ([]byte, error) {
	data, err := os.ReadFile(rankImagePath(d.path(set), rank))
	if err != nil {
		return nil, fmt.Errorf("dmtcp: reading rank image: %w", err)
	}
	return data, nil
}

// PutMeta writes the set's meta.gob.
func (d Dir) PutMeta(set string, meta Meta) error {
	dir := d.path(set)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dmtcp: creating image dir: %w", err)
	}
	f, err := os.Create(metaPath(dir))
	if err != nil {
		return fmt.Errorf("dmtcp: creating meta: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(meta); err != nil {
		return fmt.Errorf("dmtcp: encoding meta: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dmtcp: closing meta: %w", err)
	}
	return nil
}

// Meta decodes the set's meta.gob.
func (d Dir) Meta(set string) (Meta, error) {
	var meta Meta
	f, err := os.Open(metaPath(d.path(set)))
	if err != nil {
		return meta, fmt.Errorf("dmtcp: opening meta: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&meta); err != nil {
		return meta, fmt.Errorf("dmtcp: decoding meta: %w", err)
	}
	return meta, nil
}

// Sets lists root's subdirectories (os.ReadDir sorts them).
func (d Dir) Sets(root string) []string {
	entries, err := os.ReadDir(d.path(root))
	if err != nil {
		return nil
	}
	var sets []string
	for _, e := range entries {
		if e.IsDir() {
			sets = append(sets, filepath.Join(root, e.Name()))
		}
	}
	return sets
}

func metaPath(dir string) string { return filepath.Join(dir, "meta.gob") }

func rankImagePath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank_%04d.img", rank))
}

// ReadMeta loads the image set descriptor from a checkpoint directory.
func ReadMeta(dir string) (Meta, error) { return Dir("").Meta(dir) }

// ReadRankImage loads one rank's image from a checkpoint directory.
// PluginBlob and ProgState are sub-slices of one read of the file.
func ReadRankImage(dir string, rank int) (RankImage, error) { return ReadRank(Dir(""), dir, rank) }

// ReadRankHeader reads and validates one rank image file's header and
// trailer without touching its sections: two small reads however large
// the state. An image it accepts is complete.
func ReadRankHeader(dir string, rank int) (RankHeader, error) {
	f, err := os.Open(rankImagePath(dir, rank))
	if err != nil {
		return RankHeader{}, fmt.Errorf("dmtcp: opening rank image: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return RankHeader{}, fmt.Errorf("dmtcp: sizing rank image: %w", err)
	}
	var ends [headerLen + trailerLen]byte
	head, tail := ends[:headerLen], ends[headerLen:]
	if fi.Size() >= int64(len(ends)) {
		if _, err := f.ReadAt(head, 0); err != nil {
			return RankHeader{}, fmt.Errorf("dmtcp: reading image header: %w", err)
		}
		if _, err := f.ReadAt(tail, fi.Size()-trailerLen); err != nil {
			return RankHeader{}, fmt.Errorf("dmtcp: reading image trailer: %w", err)
		}
	}
	h, err := parseImageEnds(head, tail, fi.Size())
	if err != nil {
		return RankHeader{}, fmt.Errorf("%w (rank %d in %s)", err, rank, dir)
	}
	if h.Rank != rank {
		return RankHeader{}, fmt.Errorf("dmtcp: image rank %d does not match file for rank %d", h.Rank, rank)
	}
	return h, nil
}

// --- the memory backend ---

// Mem is the in-memory backend. Its images live until Release: a job
// that restarts only from its own images needs nothing more, and no
// file, directory or earlier run can change what it restores. It keeps
// what recovery can use: once a periodic set is complete, the older
// periodic sets under the same root are dropped, since LatestComplete can
// never return them again. Safe for concurrent use.
type Mem struct {
	mu   sync.Mutex
	sets map[string]*memSet
	size int // the largest image stored so far: the next one's capacity
}

type memSet struct {
	meta  *Meta
	ranks map[int][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{sets: make(map[string]*memSet)} }

func (m *Mem) set(name string) *memSet {
	s := m.sets[name]
	if s == nil {
		s = &memSet{ranks: make(map[int][]byte)}
		m.sets[name] = s
	}
	return s
}

// imageBufs recycles image buffers from released stores into new ones,
// up to imageBufBudget bytes: a scenario cell writes an image per rank
// per step, the same few sizes cell after cell. Unlike a sync.Pool it
// survives garbage collection, which the cells' churn triggers several
// times per cell.
var imageBufs struct {
	sync.Mutex
	free    [64][][]byte // free[c] holds buffers of capacity >= 1<<c
	held    int          // bytes of capacity in free
	largest int          // the largest image any store has held
}

const imageBufBudget = 64 << 20

// imageBuf returns an empty buffer for an image expected to be about n
// bytes — with headroom for state that grows a little from step to step
// — or, with n == 0 (nothing predicts the size yet), as large as the
// largest image seen.
func imageBuf(n int) []byte {
	b := &imageBufs
	b.Lock()
	defer b.Unlock()
	if n == 0 {
		n = b.largest
	}
	c := bits.Len(uint(max(n+n/4, 1) - 1))
	if k := len(b.free[c]); k > 0 {
		buf := b.free[c][k-1]
		b.free[c] = b.free[c][:k-1]
		b.held -= cap(buf)
		return buf
	}
	return make([]byte, 0, 1<<c)
}

// recycleImageBufs takes back a released store's buffers, as many as the
// budget holds.
func recycleImageBufs(bufs [][]byte) {
	b := &imageBufs
	b.Lock()
	defer b.Unlock()
	for _, buf := range bufs {
		b.largest = max(b.largest, len(buf))
		if b.held+cap(buf) > imageBufBudget {
			continue
		}
		c := bits.Len(uint(cap(buf))) - 1
		b.free[c] = append(b.free[c], buf[:0])
		b.held += cap(buf)
	}
}

// PutRank encodes rank's image straight into a recycled buffer sized for
// the largest image the store holds.
func (m *Mem) PutRank(set string, rank int, write func(io.Writer) error) error {
	m.mu.Lock()
	delete(m.set(set).ranks, rank)
	size := m.size
	m.mu.Unlock()
	buf := bytes.NewBuffer(imageBuf(size))
	if err := write(buf); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.set(set).ranks[rank] = buf.Bytes()
	m.size = max(m.size, buf.Len())
	m.prune(set)
	return nil
}

// prune drops the periodic sets older than set under its root once set
// is complete, recycling their buffers: every job that restored from
// them decoded its image before any rank of it could take part in
// completing a newer set.
func (m *Mem) prune(set string) {
	s := m.sets[set]
	if s.meta == nil || len(s.ranks) < s.meta.NumRanks || !isPeriodic(set) {
		return
	}
	if !complete(*s.meta, func(r int) ([]byte, error) { return s.ranks[r], nil }) {
		return
	}
	var bufs [][]byte
	for name, older := range m.sets {
		if name < set && isPeriodic(name) && filepath.Dir(name) == filepath.Dir(set) {
			for _, data := range older.ranks {
				bufs = append(bufs, data)
			}
			delete(m.sets, name)
		}
	}
	recycleImageBufs(bufs)
}

// Release empties the store and recycles its buffers for later stores.
// Call it once nothing reads the images any more: every job that
// restored from the store has finished.
func (m *Mem) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bufs [][]byte
	for _, s := range m.sets {
		for _, data := range s.ranks {
			bufs = append(bufs, data)
		}
	}
	clear(m.sets)
	recycleImageBufs(bufs)
}

// Rank returns rank's stored image.
func (m *Mem) Rank(set string, rank int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.sets[set]; s != nil {
		if data, ok := s.ranks[rank]; ok {
			return data, nil
		}
	}
	return nil, fmt.Errorf("dmtcp: no image of rank %d in %s", rank, set)
}

// PutMeta records the set's descriptor.
func (m *Mem) PutMeta(set string, meta Meta) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.set(set).meta = &meta
	m.prune(set)
	return nil
}

// Meta returns the set's descriptor.
func (m *Mem) Meta(set string) (Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.sets[set]; s != nil && s.meta != nil {
		return *s.meta, nil
	}
	return Meta{}, fmt.Errorf("dmtcp: no image set %s", set)
}

// Sets lists the stored sets named root/<name>, ascending.
func (m *Mem) Sets(root string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	root = filepath.Clean(root)
	var sets []string
	for name := range m.sets {
		if filepath.Dir(name) == root {
			sets = append(sets, name)
		}
	}
	sort.Strings(sets)
	return sets
}

// Mirror returns a store that reads from primary and writes to both
// primary and copy: a job restores only what primary holds, so copy —
// typically a Dir kept for inspection — can never change what it
// restores, whatever it held before.
func Mirror(primary, copy ImageStore) ImageStore { return mirror{primary, copy} }

type mirror struct {
	ImageStore
	copy ImageStore
}

func (m mirror) PutRank(set string, rank int, write func(io.Writer) error) error {
	if err := m.ImageStore.PutRank(set, rank, write); err != nil {
		return err
	}
	data, err := m.ImageStore.Rank(set, rank)
	if err != nil {
		return err
	}
	return m.copy.PutRank(set, rank, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func (m mirror) PutMeta(set string, meta Meta) error {
	if err := m.ImageStore.PutMeta(set, meta); err != nil {
		return err
	}
	return m.copy.PutMeta(set, meta)
}
