package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Batch framing: the multi-field body of the checkpoint endpoint. One
// request carries every field of a snapshot, so the server can compress
// them all against one cached encoder — amortizing recipe construction
// across the whole checkpoint exactly as the paper predicts. The grammar
// is sectioned, self-checking, and explicitly terminated:
//
//	batch      = magic section* terminator
//	magic      = "ZMB1"                                          (4 bytes)
//	section    = u16le nameLen | name | u16le metaLen | meta
//	           | u64le payloadLen | u32le crc32c(payload) | payload
//	terminator = u16le 0xFFFF
//
// name is the field name. meta is a small free-form string whose meaning
// is positional: the request carries the field's error bound ("abs:1e-3"),
// the response carries the decoded value count. payload is float64-LE
// values on the request and a container-enveloped artifact on the
// response. A body that ends before the terminator is a truncated batch
// (io.ErrUnexpectedEOF), which is how a client detects a server that
// aborted mid-response after the status line was already committed.
var (
	batchMagic = [4]byte{'Z', 'M', 'B', '1'}

	// ErrBatchMagic reports a body that does not start with the batch magic.
	ErrBatchMagic = errors.New("wire: not a batch stream (bad magic)")
	// ErrBatchPayloadTooLarge reports a section whose declared payload
	// length exceeds the reader's configured cap.
	ErrBatchPayloadTooLarge = errors.New("wire: batch section payload exceeds cap")
	// ErrBatchChecksum reports a section payload failing its CRC32-C.
	ErrBatchChecksum = errors.New("wire: batch section checksum mismatch")
)

// ContentTypeBatch tags request/response bodies in the batch framing.
const ContentTypeBatch = "application/x-zmesh-batch"

// batchTerminator is the nameLen value that ends a batch (no valid name is
// that long: nameLen and metaLen are each capped one below it).
const batchTerminator = 0xFFFF

// batchReadSeed caps the up-front allocation for a section payload. The
// declared length only sizes the buffer up to this seed; past it the
// buffer grows geometrically as bytes actually arrive, so a section
// declaring gigabytes while sending nothing cannot force the allocation.
const batchReadSeed = 1 << 20

// BatchWriter emits the batch framing onto w. The magic is written lazily
// with the first section, and Close writes the terminator.
type BatchWriter struct {
	w          io.Writer
	wroteMagic bool
	hdr        [16]byte
}

// NewBatchWriter starts a batch stream on w.
func NewBatchWriter(w io.Writer) *BatchWriter { return &BatchWriter{w: w} }

func (bw *BatchWriter) magic() error {
	if bw.wroteMagic {
		return nil
	}
	if _, err := bw.w.Write(batchMagic[:]); err != nil {
		return err
	}
	bw.wroteMagic = true
	return nil
}

// WriteSection frames one (name, meta, payload) section. The payload is
// written directly from the caller's slice.
func (bw *BatchWriter) WriteSection(name, meta string, payload []byte) error {
	if len(name) >= batchTerminator {
		return fmt.Errorf("wire: batch section name is %d bytes, max %d", len(name), batchTerminator-1)
	}
	if len(meta) >= batchTerminator {
		return fmt.Errorf("wire: batch section meta is %d bytes, max %d", len(meta), batchTerminator-1)
	}
	if err := bw.magic(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(bw.hdr[0:2], uint16(len(name)))
	if _, err := bw.w.Write(bw.hdr[:2]); err != nil {
		return err
	}
	if _, err := io.WriteString(bw.w, name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(bw.hdr[0:2], uint16(len(meta)))
	if _, err := bw.w.Write(bw.hdr[:2]); err != nil {
		return err
	}
	if _, err := io.WriteString(bw.w, meta); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(bw.hdr[0:8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(bw.hdr[8:12], frame.Checksum(payload))
	if _, err := bw.w.Write(bw.hdr[:12]); err != nil {
		return err
	}
	_, err := bw.w.Write(payload)
	return err
}

// Close terminates the batch. An empty batch (magic + terminator) is
// valid. The underlying writer is not closed.
func (bw *BatchWriter) Close() error {
	if err := bw.magic(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(bw.hdr[0:2], batchTerminator)
	_, err := bw.w.Write(bw.hdr[:2])
	return err
}

// BatchReader consumes the batch framing from r, one section per Next
// call. maxPayload caps every section's declared payload length.
type BatchReader struct {
	r          io.Reader
	maxPayload int64
	readMagic  bool
	done       bool
	hdr        [16]byte
	nameBuf    []byte
	metaBuf    []byte
}

// NewBatchReader starts parsing a batch stream from r. maxPayload <= 0
// disables the per-section cap.
func NewBatchReader(r io.Reader, maxPayload int64) *BatchReader {
	return &BatchReader{r: r, maxPayload: maxPayload}
}

// unexpected normalizes a mid-frame read error: any EOF inside a section
// is a truncated batch.
func unexpected(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next section, reading the payload into buf when its
// capacity suffices. The name and meta strings are copies and remain
// valid across calls; the payload aliases buf. Next returns io.EOF once
// the terminator has been consumed.
func (br *BatchReader) Next(buf []byte) (name, meta string, payload []byte, err error) {
	if br.done {
		return "", "", nil, io.EOF
	}
	if !br.readMagic {
		var m [4]byte
		if _, err := io.ReadFull(br.r, m[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return "", "", nil, fmt.Errorf("%w: truncated before magic", ErrBatchMagic)
			}
			return "", "", nil, err
		}
		if m != batchMagic {
			return "", "", nil, ErrBatchMagic
		}
		br.readMagic = true
	}
	if _, err := io.ReadFull(br.r, br.hdr[:2]); err != nil {
		return "", "", nil, unexpected(err)
	}
	nameLen := binary.LittleEndian.Uint16(br.hdr[0:2])
	if nameLen == batchTerminator {
		br.done = true
		return "", "", nil, io.EOF
	}
	if br.nameBuf, err = br.readSmall(br.nameBuf, int(nameLen)); err != nil {
		return "", "", nil, err
	}
	name = string(br.nameBuf)
	if _, err := io.ReadFull(br.r, br.hdr[:2]); err != nil {
		return "", "", nil, unexpected(err)
	}
	metaLen := binary.LittleEndian.Uint16(br.hdr[0:2])
	if metaLen == batchTerminator {
		return "", "", nil, fmt.Errorf("wire: batch section %q: terminator in meta position", name)
	}
	if br.metaBuf, err = br.readSmall(br.metaBuf, int(metaLen)); err != nil {
		return "", "", nil, err
	}
	meta = string(br.metaBuf)
	if _, err := io.ReadFull(br.r, br.hdr[:12]); err != nil {
		return "", "", nil, unexpected(err)
	}
	payloadLen := binary.LittleEndian.Uint64(br.hdr[0:8])
	sum := binary.LittleEndian.Uint32(br.hdr[8:12])
	if br.maxPayload > 0 && payloadLen > uint64(br.maxPayload) {
		return "", "", nil, fmt.Errorf("%w: section %q declares %d bytes, cap %d",
			ErrBatchPayloadTooLarge, name, payloadLen, br.maxPayload)
	}
	payload, err = readDeclared(br.r, buf, payloadLen)
	if err != nil {
		return "", "", nil, err
	}
	if frame.Checksum(payload) != sum {
		return "", "", nil, fmt.Errorf("%w: section %q", ErrBatchChecksum, name)
	}
	return name, meta, payload, nil
}

func (br *BatchReader) readSmall(buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br.r, buf); err != nil {
		return buf, unexpected(err)
	}
	return buf, nil
}

// readDeclared reads exactly n bytes into buf, seeding the allocation at
// batchReadSeed and growing geometrically as data arrives — the declared
// length never sizes the buffer directly past the seed, so a lying length
// prefix costs at most one seed-sized allocation.
func readDeclared(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	seed := n
	if seed > batchReadSeed {
		seed = batchReadSeed
	}
	if uint64(cap(buf)) < seed {
		buf = make([]byte, 0, seed)
	}
	buf = buf[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		space := cap(buf) - len(buf)
		if rem := n - uint64(len(buf)); uint64(space) > rem {
			space = int(rem)
		}
		m, err := r.Read(buf[len(buf) : len(buf)+space])
		buf = buf[:len(buf)+m]
		if err != nil {
			if uint64(len(buf)) == n {
				break
			}
			return buf, unexpected(err)
		}
	}
	return buf, nil
}
