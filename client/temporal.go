package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	zmesh "repro"
	"repro/internal/wire"
)

// TemporalSession is a simulation's in-situ attachment to zmeshd's temporal
// checkpoint store: one server-side session holding one keyframe/delta
// stream per quantity. The session owns a local TemporalEncoder per field,
// frames each snapshot onto the wire, and — the part that makes it safe to
// run unattended for hours — recovers from server-side state loss
// automatically. An evicted or restarted session (404), a stream that lost
// its baseline (409), or a history divergence (412) all resolve the same
// way: re-establish the state and re-send the current snapshot as a forced
// keyframe. Nothing is ever replayed and the stream can never silently fork,
// because every append carries its expected sequence number and the server
// refuses anything that does not line up.
//
// A TemporalSession is safe for concurrent use; appends are serialized, as
// temporal order demands.
type TemporalSession struct {
	c   *Client
	opt zmesh.Options

	mu   sync.Mutex
	id   string
	encs map[string]*zmesh.TemporalEncoder
	// forced marks fields whose next keyframe is a recovery (re-sync) frame
	// rather than a topology change, so the server can count them apart.
	forced map[string]bool
	// seq is the next frame index per field, echoed to the server on every
	// append for exactly-once semantics.
	seq    map[string]uint64
	sealed bool
}

// ErrSessionSealed is returned by Append and Seal after a successful Seal.
var ErrSessionSealed = errors.New("client: temporal session already sealed")

// NewTemporalSession creates a server-side temporal session. opt names the
// pipeline every stream of this session encodes with; LayoutAuto is
// rejected — temporal streams need one stable concrete layout so delta
// frames stay comparable across snapshots.
func (c *Client) NewTemporalSession(ctx context.Context, opt zmesh.Options) (*TemporalSession, error) {
	opt = withDefaults(opt)
	if opt.Layout == zmesh.LayoutAuto {
		return nil, fmt.Errorf("client: temporal sessions need a concrete layout: %w", zmesh.ErrAutoLayout)
	}
	ts := &TemporalSession{
		c:      c,
		opt:    opt,
		encs:   make(map[string]*zmesh.TemporalEncoder),
		forced: make(map[string]bool),
		seq:    make(map[string]uint64),
	}
	if err := ts.createLocked(ctx); err != nil {
		return nil, err
	}
	return ts, nil
}

// createLocked mints a fresh server-side session and resets every stream to
// start over with a forced keyframe at sequence zero. Callers hold ts.mu
// (or, from NewTemporalSession, exclusive ownership).
func (ts *TemporalSession) createLocked(ctx context.Context) error {
	body, _, err := ts.c.do(ctx, http.MethodPost, ts.c.base+wire.PathSessions, "", nil)
	if err != nil {
		return err
	}
	var resp wire.SessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("client: decoding session response: %w", err)
	}
	if resp.SessionID == "" {
		return errors.New("client: session response carries no session_id")
	}
	ts.id = resp.SessionID
	for name, enc := range ts.encs {
		enc.ForceKeyframe()
		ts.forced[name] = true
		ts.seq[name] = 0
	}
	return nil
}

// ID returns the current server-side session id (it changes when recovery
// re-creates the session).
func (ts *TemporalSession) ID() string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.id
}

// AppendResult reports one accepted snapshot append.
type AppendResult struct {
	// Frame is the locally encoded temporal frame the server accepted —
	// callers that mirror the stream (e.g. to track reconstruction error)
	// can feed it to their own TemporalDecoder.
	Frame *zmesh.TemporalCompressed
	// FrameIndex is the frame's position in its server-side stream.
	FrameIndex int
	// Keyframe and Forced mirror the accepted frame's flags.
	Keyframe bool
	Forced   bool
	// Recovered reports that this append transparently re-established
	// server-side state (session re-create and/or forced keyframe) first.
	Recovered bool
	// Object is the content address the frame bytes were persisted under.
	Object string
}

// Append encodes the next snapshot of field f (keyframe or delta, decided by
// the encoder from the topology) and posts it to the session's stream,
// transparently recovering from server-side state loss. The error bound
// resolves against this snapshot's own value stream, like
// TemporalEncoder.CompressSnapshot.
func (ts *TemporalSession) Append(ctx context.Context, f *zmesh.Field, bound zmesh.Bound) (*AppendResult, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.sealed {
		return nil, ErrSessionSealed
	}
	enc := ts.encs[f.Name]
	if enc == nil {
		var err error
		enc, err = zmesh.NewTemporalEncoder(ts.opt)
		if err != nil {
			return nil, err
		}
		ts.encs[f.Name] = enc
		ts.forced[f.Name] = false
		ts.seq[f.Name] = 0
	}

	recovered := false
	// Two recovery rounds cover the worst case (evicted session discovered
	// via 404, then nothing else); a third failure is a real error.
	for attempt := 0; ; attempt++ {
		tc, err := enc.CompressSnapshot(f, bound)
		if err != nil {
			return nil, err
		}
		frame, err := wire.EncodeTemporalFrame(tc.WireFrame(tc.Keyframe && ts.forced[f.Name]))
		if err != nil {
			return nil, err
		}
		reqURL := ts.c.base + wire.SessionFramesPath(ts.id, url.PathEscape(f.Name)) +
			"?" + wire.ParamSeq + "=" + strconv.FormatUint(ts.seq[f.Name], 10)
		body, _, err := ts.c.do(ctx, http.MethodPost, reqURL, wire.ContentTypeTemporal, frame)
		if err == nil {
			var resp wire.FrameResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, fmt.Errorf("client: decoding frame response: %w", err)
			}
			ts.forced[f.Name] = false
			ts.seq[f.Name]++
			return &AppendResult{
				Frame:      tc,
				FrameIndex: resp.FrameIndex,
				Keyframe:   resp.Keyframe,
				Forced:     resp.Forced,
				Recovered:  recovered,
				Object:     resp.Object,
			}, nil
		}

		var se *StatusError
		if !errors.As(err, &se) || attempt >= 2 {
			// Ambiguous failure (transport, exhausted retries): the server
			// may or may not have taken the frame. Force a keyframe so the
			// next append re-syncs instead of chaining a delta onto unknown
			// state; the sequence check catches any divergence.
			enc.ForceKeyframe()
			ts.forced[f.Name] = true
			return nil, err
		}
		switch se.Code {
		case http.StatusNotFound:
			// Session evicted or daemon restarted: new session, every stream
			// restarts with a forced keyframe.
			if cerr := ts.createLocked(ctx); cerr != nil {
				return nil, fmt.Errorf("client: re-creating evicted session: %w", cerr)
			}
		case http.StatusConflict:
			// This stream lost its baseline (server knows no keyframe):
			// restart just this field.
			enc.ForceKeyframe()
			ts.forced[f.Name] = true
			ts.seq[f.Name] = 0
		case http.StatusPreconditionFailed:
			// Histories diverged — the only safe move is a full resync into
			// a fresh session.
			if cerr := ts.createLocked(ctx); cerr != nil {
				return nil, fmt.Errorf("client: re-creating diverged session: %w", cerr)
			}
		default:
			enc.ForceKeyframe()
			ts.forced[f.Name] = true
			return nil, err
		}
		recovered = true
	}
}

// Seal makes the checkpoint durable: the server writes the manifest to the
// content-addressed store and retires the session. The returned checkpoint
// id is the handle for every read. After a successful Seal the session is
// spent; further Append or Seal calls return ErrSessionSealed.
func (ts *TemporalSession) Seal(ctx context.Context) (string, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.sealed {
		return "", ErrSessionSealed
	}
	body, _, err := ts.c.do(ctx, http.MethodPost, ts.c.base+wire.SessionSealPath(ts.id), "", nil)
	if err != nil {
		return "", err
	}
	var resp wire.SealResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("client: decoding seal response: %w", err)
	}
	if resp.CheckpointID == "" {
		return "", errors.New("client: seal response carries no checkpoint_id")
	}
	ts.sealed = true
	return resp.CheckpointID, nil
}
