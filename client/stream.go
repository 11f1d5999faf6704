// Streaming and batch requests. CompressStream and DecompressStream move a
// field between an io.Reader or io.Writer and the plain compress and
// decompress endpoints; CompressBatch and CompressCheckpoint send a whole
// checkpoint through the batch endpoint (wire/batch.go).
//
// The server needs a field's whole value array in memory either way, so
// CompressStream saves the caller a buffer, not the server one. Because the
// source is a stream, a failed attempt can only be retried while nothing
// has been consumed from it yet — once the first byte is committed to an
// attempt, failures surface to the caller instead of silently re-reading a
// source that cannot be rewound. DecompressStream and CompressCheckpoint
// send from buffers, so they keep the full retry/backoff machinery until
// the first response byte has been handed to the caller.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	zmesh "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// BatchField is one field of a checkpoint batch request: a name plus its
// level-order value stream.
type BatchField struct {
	Name   string
	Values []float64
}

// statusError drains and closes a non-2xx response into a StatusError.
func statusError(resp *http.Response) *StatusError {
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	msg := strings.TrimSpace(string(body))
	var je wire.ErrorResponse
	if json.Unmarshal(body, &je) == nil && je.Error != "" {
		msg = je.Error
	}
	return &StatusError{Code: resp.StatusCode, Msg: msg, RetryAfter: resp.Header.Get("Retry-After")}
}

// compressQuery renders the shared compress-side query string.
func compressQuery(fieldName string, opt zmesh.Options, bound zmesh.Bound) string {
	return url.Values{
		wire.ParamField:  {fieldName},
		wire.ParamLayout: {opt.Layout.String()},
		wire.ParamCurve:  {opt.Curve},
		wire.ParamCodec:  {opt.Codec},
		wire.ParamBound:  {wire.FormatBound(bound)},
	}.Encode()
}

// countingReader tracks how many bytes have been consumed from the
// underlying stream — the retry-safety sentinel of CompressStream — and the
// first error the stream itself returned.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	if err != nil && err != io.EOF && cr.err == nil {
		cr.err = err
	}
	return n, err
}

// CompressStream compresses one field whose float64-LE level-order values
// are read from values, posted as the plain body of the compress endpoint
// (chunked Transfer-Encoding, since the length is not known up front). The
// server reads exactly the mesh's cell count × 8 bytes, so a source that is
// short or long fails with a 400. Attempts are retried with the usual
// backoff only while zero bytes have been consumed from values; after that
// the stream cannot be replayed and the first failure is final.
func (c *Client) CompressStream(ctx context.Context, meshID, fieldName string, values io.Reader, opt zmesh.Options, bound zmesh.Bound) (*zmesh.Compressed, error) {
	opt = withDefaults(opt)
	reqURL := c.base + wire.CompressPath(meshID) + "?" + compressQuery(fieldName, opt, bound)
	src := &countingReader{r: values}
	var out *zmesh.Compressed
	err := c.retry(ctx, func() (bool, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, reqURL, src)
		if err != nil {
			return true, "", err
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		resp, err := c.hc.Do(req)
		if err == nil && resp.StatusCode/100 == 2 {
			payload, rerr := readBody(resp)
			if rerr != nil {
				return true, "", fmt.Errorf("client: reading compress response: %w", rerr)
			}
			out, err = artifactFromHeaders(resp.Header, payload)
			return true, "", err
		}
		final, retryAfter, ferr := failed(ctx, resp, err)
		switch {
		case src.err != nil:
			// The failure was caused by the source itself; the caller needs
			// that, not the transport's or the server's account of it.
			return true, "", fmt.Errorf("client: reading value stream: %w", src.err)
		case final:
			return true, "", ferr
		case src.n > 0:
			return true, "", fmt.Errorf("client: stream failed after %d bytes were consumed (cannot replay an io.Reader): %w", src.n, ferr)
		}
		return false, retryAfter, ferr
	})
	return out, err
}

// sleep waits out one retry delay (see retryDelay), bounded by ctx.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter string, lastErr error) error {
	t := time.NewTimer(c.retryDelay(attempt, retryAfter, lastErr))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// DecompressStream decompresses an artifact server-side and copies the
// reconstructed float64-LE values into w, returning the number of values
// written. The request is replayed from the artifact buffer on 429/5xx
// with the usual backoff; once the first response byte has been written to
// w, a failure is final (w cannot be rewound). A truncated response is an
// error, never silently short data: the transport reports a body cut short
// as io.ErrUnexpectedEOF, and the count is checked against the server's
// X-Zmesh-Num-Values header and the artifact's NumValues.
func (c *Client) DecompressStream(ctx context.Context, meshID string, comp *zmesh.Compressed, w io.Writer) (int, error) {
	q := url.Values{
		wire.ParamField:  {comp.FieldName},
		wire.ParamLayout: {comp.Layout.String()},
		wire.ParamCurve:  {comp.Curve},
	}.Encode()
	reqURL := c.base + wire.DecompressPath(meshID) + "?" + q
	n := 0
	err := c.retry(ctx, func() (bool, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, reqURL, bytes.NewReader(comp.Payload))
		if err != nil {
			return true, "", err
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		resp, err := c.hc.Do(req)
		if err != nil || resp.StatusCode/100 != 2 {
			return failed(ctx, resp, err)
		}
		// The first response byte may now reach w: whatever happens is final.
		nb, err := io.Copy(w, resp.Body)
		resp.Body.Close()
		n = int(nb / 8)
		declared, herr := strconv.Atoi(resp.Header.Get(wire.HeaderNumValues))
		switch {
		case err != nil:
			err = fmt.Errorf("client: reading values: %w", err)
		case nb%8 != 0:
			err = fmt.Errorf("client: server sent %d bytes, not a multiple of 8", nb)
		case herr != nil:
			err = fmt.Errorf("client: bad %s header: %w", wire.HeaderNumValues, herr)
		case n != declared:
			err = fmt.Errorf("client: server sent %d values, declared %d", n, declared)
		case comp.NumValues != 0 && n != comp.NumValues:
			err = fmt.Errorf("client: server sent %d values, artifact claims %d", n, comp.NumValues)
		}
		return true, "", err
	})
	return n, err
}

// CompressBatch compresses several fields of one registered mesh in a
// single request against one cached server-side encoder — the recipe cost
// is paid at most once for the whole batch (the paper's amortization
// claim, made cross-process). All fields share opt and bound; results come
// back in request order. The body is buffered, so the full retry/backoff
// machinery applies.
func (c *Client) CompressBatch(ctx context.Context, meshID string, fields []BatchField, opt zmesh.Options, bound zmesh.Bound) ([]*zmesh.Compressed, error) {
	if len(fields) == 0 {
		return nil, errors.New("client: empty batch")
	}
	opt = withDefaults(opt)
	var body bytes.Buffer
	bw := wire.NewBatchWriter(&body)
	meta := wire.FormatBound(bound)
	var scratch []byte
	for _, f := range fields {
		scratch = wire.AppendFloats(scratch[:0], f.Values)
		if err := bw.WriteSection(f.Name, meta, scratch); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return c.sendBatch(ctx, meshID, body.Bytes(), opt)
}

// CompressCheckpoint is CompressBatch over every field of a checkpoint,
// serialized one at a time through zmesh.EachFieldValues so the request
// body is built with a single reused stream buffer.
func (c *Client) CompressCheckpoint(ctx context.Context, meshID string, ck *zmesh.Checkpoint, opt zmesh.Options, bound zmesh.Bound) ([]*zmesh.Compressed, error) {
	if len(ck.Fields) == 0 {
		return nil, errors.New("client: checkpoint has no fields")
	}
	opt = withDefaults(opt)
	var body bytes.Buffer
	bw := wire.NewBatchWriter(&body)
	meta := wire.FormatBound(bound)
	var scratch []byte
	if err := zmesh.EachFieldValues(ck, func(name string, values []float64) error {
		scratch = wire.AppendFloats(scratch[:0], values)
		return bw.WriteSection(name, meta, scratch)
	}); err != nil {
		return nil, err
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return c.sendBatch(ctx, meshID, body.Bytes(), opt)
}

// sendBatch posts a built batch body to the checkpoint endpoint and parses
// the sectioned response into artifacts.
func (c *Client) sendBatch(ctx context.Context, meshID string, body []byte, opt zmesh.Options) ([]*zmesh.Compressed, error) {
	q := url.Values{
		wire.ParamLayout: {opt.Layout.String()},
		wire.ParamCurve:  {opt.Curve},
		wire.ParamCodec:  {opt.Codec},
	}.Encode()
	respBody, hdr, err := c.do(ctx, http.MethodPost, c.base+wire.CheckpointPath(meshID)+"?"+q, wire.ContentTypeBatch, body)
	if err != nil {
		return nil, err
	}
	// The header, not the request, names the layout: "auto" comes back as
	// the concrete layout the server's encoder resolved it to.
	layout, err := core.ParseLayout(hdr.Get(wire.HeaderLayout))
	if err != nil {
		return nil, fmt.Errorf("client: bad %s header: %w", wire.HeaderLayout, err)
	}
	br := wire.NewBatchReader(bytes.NewReader(respBody), 0)
	var out []*zmesh.Compressed
	var buf []byte
	for {
		name, meta, payload, err := br.Next(buf)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("client: parsing batch response (server aborted mid-batch?): %w", err)
		}
		numValues, err := strconv.Atoi(meta)
		if err != nil {
			return nil, fmt.Errorf("client: batch section %q carries no value count: %w", name, err)
		}
		out = append(out, &zmesh.Compressed{
			FieldName: name,
			Layout:    layout,
			Curve:     opt.Curve,
			Codec:     opt.Codec,
			NumValues: numValues,
			Payload:   append([]byte(nil), payload...),
		})
		buf = payload
	}
}
