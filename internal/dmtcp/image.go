package dmtcp

import (
	"encoding/binary"
	"fmt"
	"io"
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
//	40      B     plugin blob (opaque to DMTCP; MANA's canon-encoded Blob)
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
	imageVersion = 2 // bump on any layout change; a build reads its own version only

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

// encodeRankImage produces one rank's image in a single pass into w (an
// ImageStore's sink): header and plugin blob, then the program state
// streamed by serialize, then the trailer.
func encodeRankImage(w io.Writer, img RankImage, serialize func(io.Writer) error) error {
	le := binary.LittleEndian
	var buf [headerLen]byte
	head := append(buf[:0], imageMagic...)
	head = le.AppendUint32(head, imageVersion)
	head = le.AppendUint32(head, uint32(img.Rank))
	head = le.AppendUint64(head, img.Step)
	head = le.AppendUint64(head, uint64(img.Clock))
	head = le.AppendUint64(head, uint64(len(img.PluginBlob)))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("dmtcp: writing rank image: %w", err)
	}
	if _, err := w.Write(img.PluginBlob); err != nil {
		return fmt.Errorf("dmtcp: writing rank image: %w", err)
	}
	state := countingWriter{w: w}
	if err := serialize(&state); err != nil {
		return fmt.Errorf("dmtcp: serializing rank %d: %w", img.Rank, err)
	}
	tail := append(le.AppendUint64(buf[:0], state.n), imageEnd...)
	if _, err := w.Write(tail); err != nil {
		return fmt.Errorf("dmtcp: writing rank image: %w", err)
	}
	return nil
}
