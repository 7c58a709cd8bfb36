package dmtcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The rank image container (rank_NNNN.img); docs/recovery.md "Checkpoint
// image format" is the reference. All integers are little-endian.
//
//	offset  size  field
//	0       8     magic "DMTCPIMG"
//	8       4     format version
//	12      4     rank
//	16      8     step
//	24      8     virtual clock (ns, signed)
//	32      8     plugin blob length B
//	40      B     plugin blob (opaque to DMTCP; MANA's gob-encoded Blob)
//	40+B    S     program state (opaque; streamed, so its length comes last)
//	40+B+S  8     program state length S
//	48+B+S  8     end marker "IMGEND\r\n"
//
// The trailer is what makes completeness decidable from the file alone: a
// writer that died mid-image leaves a file whose size disagrees with
// 56+B+S or whose last eight bytes are not the end marker.
const (
	imageMagic   = "DMTCPIMG"
	imageEnd     = "IMGEND\r\n"
	imageVersion = 1 // bump on any layout change; a build reads its own version only

	headerLen  = 40
	trailerLen = 16
)

// RankHeader is everything a rank image says about itself outside its two
// opaque sections: the fixed header fields and the section sizes.
type RankHeader struct {
	Rank     int
	Step     uint64
	Clock    int64 // virtual time at checkpoint
	BlobLen  int64 // plugin blob section, bytes
	StateLen int64 // program state section, bytes
}

// parseImageEnds validates an image's fixed header and trailer (read only
// once size admits both) against the file size. Lengths are checked against
// size before anything is sliced or allocated from them, so a hostile
// header costs nothing.
func parseImageEnds(head, tail []byte, size int64) (RankHeader, error) {
	var h RankHeader
	if size < headerLen+trailerLen {
		return h, fmt.Errorf("dmtcp: image of %d bytes is shorter than its %d-byte header and trailer",
			size, headerLen+trailerLen)
	}
	if string(head[:8]) != imageMagic {
		return h, fmt.Errorf("dmtcp: not a rank image (magic %q)", head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != imageVersion {
		return h, fmt.Errorf("dmtcp: image format version %d, this build reads only version %d", v, imageVersion)
	}
	if string(tail[8:]) != imageEnd {
		return h, fmt.Errorf("dmtcp: image has no end marker (truncated or still being written)")
	}
	blob, state := binary.LittleEndian.Uint64(head[32:]), binary.LittleEndian.Uint64(tail[:8])
	sections := uint64(size - headerLen - trailerLen)
	if blob > sections || state != sections-blob {
		return h, fmt.Errorf("dmtcp: image sections (blob %d + state %d bytes) do not fill the %d bytes between header and trailer",
			blob, state, sections)
	}
	h.Rank = int(binary.LittleEndian.Uint32(head[12:]))
	h.Step = binary.LittleEndian.Uint64(head[16:])
	h.Clock = int64(binary.LittleEndian.Uint64(head[24:]))
	h.BlobLen, h.StateLen = int64(blob), int64(state)
	return h, nil
}

// decodeRankImage splits a whole image file into its sections. ProgState
// and PluginBlob alias data.
func decodeRankImage(data []byte) (RankImage, error) {
	n := len(data)
	h, err := parseImageEnds(data[:min(n, headerLen)], data[max(0, n-trailerLen):], int64(n))
	if err != nil {
		return RankImage{}, err
	}
	blobEnd := headerLen + h.BlobLen
	return RankImage{
		Rank:       h.Rank,
		Step:       h.Step,
		Clock:      h.Clock,
		PluginBlob: data[headerLen:blobEnd:blobEnd],
		ProgState:  data[blobEnd : blobEnd+h.StateLen : blobEnd+h.StateLen],
	}, nil
}

// imageWriters pools the write buffers: a rank writes one image per
// checkpoint and, in the recovery cells, one checkpoint per step.
var imageWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// countingWriter measures the streamed program state for the trailer.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// encodeRankImage produces one rank's image in a single pass: header and
// plugin blob, then the program state streamed by serialize straight into
// the write buffer, then the trailer.
func encodeRankImage(bw *bufio.Writer, img RankImage, serialize func(io.Writer) error) error {
	le := binary.LittleEndian
	head := append(bw.AvailableBuffer(), imageMagic...)
	head = le.AppendUint32(head, imageVersion)
	head = le.AppendUint32(head, uint32(img.Rank))
	head = le.AppendUint64(head, img.Step)
	head = le.AppendUint64(head, uint64(img.Clock))
	head = le.AppendUint64(head, uint64(len(img.PluginBlob)))
	// bufio write errors are sticky: the Flush below reports them.
	_, _ = bw.Write(head)
	_, _ = bw.Write(img.PluginBlob)
	state := countingWriter{w: bw}
	if err := serialize(&state); err != nil {
		return fmt.Errorf("dmtcp: serializing rank %d: %w", img.Rank, err)
	}
	tail := append(le.AppendUint64(bw.AvailableBuffer(), state.n), imageEnd...)
	_, _ = bw.Write(tail)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dmtcp: writing rank image: %w", err)
	}
	return nil
}

// writeRankImage writes img (its ProgState streamed by serialize) to its
// file in dir. A failure leaves a file without a valid trailer, which
// every reader rejects.
func writeRankImage(dir string, img RankImage, serialize func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dmtcp: creating image dir: %w", err)
	}
	f, err := os.Create(rankImagePath(dir, img.Rank))
	if err != nil {
		return fmt.Errorf("dmtcp: creating rank image: %w", err)
	}
	defer f.Close()
	bw := imageWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	err = encodeRankImage(bw, img, serialize)
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

func rankImagePath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank_%04d.img", rank))
}

// ReadRankImage loads one rank's image from a checkpoint directory.
// PluginBlob and ProgState are sub-slices of one read of the file.
func ReadRankImage(dir string, rank int) (RankImage, error) {
	data, err := os.ReadFile(rankImagePath(dir, rank))
	if err != nil {
		return RankImage{}, fmt.Errorf("dmtcp: reading rank image: %w", err)
	}
	img, err := decodeRankImage(data)
	if err != nil {
		return RankImage{}, fmt.Errorf("%w (rank %d in %s)", err, rank, dir)
	}
	if img.Rank != rank {
		return RankImage{}, fmt.Errorf("dmtcp: image rank %d does not match file for rank %d", img.Rank, rank)
	}
	return img, nil
}

// ReadRankHeader reads and validates one rank image's header and trailer
// without touching its sections: two small reads however large the state.
// An image it accepts is complete.
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
