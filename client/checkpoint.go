package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/compress/multilevel"
	"repro/internal/wire"
)

// Checkpoint reads: the visualization-client half of the temporal store.
// Every method takes the checkpoint id a Seal returned and talks straight to
// the persisted artifacts — no session needs to exist, and the same id keeps
// working across daemon restarts.

// CheckpointInfo fetches the JSON summary of a sealed checkpoint.
func (c *Client) CheckpointInfo(ctx context.Context, checkpointID string) (*wire.CheckpointResponse, error) {
	body, _, err := c.do(ctx, http.MethodGet, c.base+wire.CheckpointInfoPath(checkpointID), "", nil)
	if err != nil {
		return nil, err
	}
	var resp wire.CheckpointResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding checkpoint response: %w", err)
	}
	return &resp, nil
}

// CheckpointStructure fetches the serialized mesh topology governing one
// snapshot (default: the last) of one field stream (default: the first).
// Rebuild the mesh with zmesh.NewDecoderFromStructure.
func (c *Client) CheckpointStructure(ctx context.Context, checkpointID, field string, snap int) ([]byte, error) {
	reqURL := c.base + wire.CheckpointStructurePath(checkpointID) + "?" + snapQuery(field, snap)
	body, _, err := c.do(ctx, http.MethodGet, reqURL, "", nil)
	if err != nil {
		return nil, err
	}
	return body, nil
}

func snapQuery(field string, snap int) string {
	q := ""
	if field != "" {
		q = wire.ParamField + "=" + url.QueryEscape(field)
	}
	if snap >= 0 {
		if q != "" {
			q += "&"
		}
		q += wire.ParamSnapshot + "=" + strconv.Itoa(snap)
	}
	return q
}

// ReadField fetches the full reconstruction of one snapshot (snap < 0 means
// the last) of one field, as level-order values.
func (c *Client) ReadField(ctx context.Context, checkpointID, field string, snap int) ([]float64, error) {
	reqURL := c.base + wire.CheckpointFieldPath(checkpointID, url.PathEscape(field))
	if q := snapQuery("", snap); q != "" {
		reqURL += "?" + q
	}
	body, _, err := c.do(ctx, http.MethodGet, reqURL, "", nil)
	if err != nil {
		return nil, err
	}
	return decodeValues(body)
}

// decodeValues turns a float64-LE response body into values, viewing the
// body in place where the build allows it: the body is the caller's alone.
func decodeValues(body []byte) ([]float64, error) {
	if values, ok := wire.ViewFloats(body); ok {
		return values, nil
	}
	values, err := wire.DecodeFloats(body)
	if err != nil {
		return nil, fmt.Errorf("client: decoding values: %w", err)
	}
	return values, nil
}

// LevelData is one progressive level-prefix read.
type LevelData struct {
	// Values is the level-order prefix covering refinement levels
	// 0..Levels-1. Turn it into a full field with
	// zmesh.ReconstructPartialLevels.
	Values []float64
	// Levels is the number of refinement levels delivered.
	Levels int
	// MeshLevels is the total refinement level count of the snapshot's
	// topology (Levels == MeshLevels means the read was complete).
	MeshLevels int
	// Snapshot and Snapshots locate the read within the stream.
	Snapshot  int
	Snapshots int
}

// ReadFieldLevels fetches the coarse prefix covering the first `levels`
// refinement levels of one snapshot — the level-of-detail read a
// visualization client renders while finer levels are still in flight.
func (c *Client) ReadFieldLevels(ctx context.Context, checkpointID, field string, snap, levels int) (*LevelData, error) {
	reqURL := c.base + wire.CheckpointFieldPath(checkpointID, url.PathEscape(field)) +
		"?" + wire.ParamLevels + "=" + strconv.Itoa(levels)
	if q := snapQuery("", snap); q != "" {
		reqURL += "&" + q
	}
	body, hdr, err := c.do(ctx, http.MethodGet, reqURL, "", nil)
	if err != nil {
		return nil, err
	}
	values, err := decodeValues(body)
	if err != nil {
		return nil, err
	}
	ld := &LevelData{Values: values}
	for _, h := range []struct {
		name string
		dst  *int
	}{
		{wire.HeaderLevels, &ld.Levels},
		{wire.HeaderMeshLevels, &ld.MeshLevels},
		{wire.HeaderSnapshot, &ld.Snapshot},
		{wire.HeaderSnapshots, &ld.Snapshots},
	} {
		if *h.dst, err = strconv.Atoi(hdr.Get(h.name)); err != nil {
			return nil, fmt.Errorf("client: bad %s header: %w", h.name, err)
		}
	}
	return ld, nil
}

// TierData is one tiered progressive read: the reconstruction after decoding
// all delivered tiers, plus each tier's guaranteed absolute error bound.
// Bounds decrease strictly, so decoding the first k tiers of any response
// yields an error no worse than Bounds[k-1] — the strictly-improving
// guarantee of the tiered read.
type TierData struct {
	Values []float64
	Bounds []float64
	// Tiers are the raw tiers as received; DecompressProgressive over any
	// prefix gives the coarser previews.
	Tiers []multilevel.Tier
}

// DecodePrefix reconstructs the bounded-error preview carried by the first
// k tiers: the result's max error is guaranteed <= Bounds[k-1].
func (td *TierData) DecodePrefix(k int) ([]float64, error) {
	if k < 1 || k > len(td.Tiers) {
		return nil, fmt.Errorf("client: tier prefix %d out of range (have %d tiers)", k, len(td.Tiers))
	}
	return multilevel.New().DecompressProgressive(td.Tiers[:k])
}

// ReadFieldTiers fetches one snapshot as `tiers` progressive tiers with
// strictly decreasing error bounds and decodes them all.
func (c *Client) ReadFieldTiers(ctx context.Context, checkpointID, field string, snap, tiers int) (*TierData, error) {
	reqURL := c.base + wire.CheckpointFieldPath(checkpointID, url.PathEscape(field)) +
		"?" + wire.ParamTiers + "=" + strconv.Itoa(tiers)
	if q := snapQuery("", snap); q != "" {
		reqURL += "&" + q
	}
	body, _, err := c.do(ctx, http.MethodGet, reqURL, "", nil)
	if err != nil {
		return nil, err
	}
	br := wire.NewBatchReader(bytes.NewReader(body), 0)
	td := &TierData{}
	for {
		_, meta, payload, err := br.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("client: reading tier batch: %w", err)
		}
		bound, perr := strconv.ParseFloat(meta, 64)
		if perr != nil {
			return nil, fmt.Errorf("client: bad tier bound %q: %w", meta, perr)
		}
		td.Tiers = append(td.Tiers, multilevel.Tier{Bound: bound, Payload: payload})
		td.Bounds = append(td.Bounds, bound)
	}
	if len(td.Tiers) == 0 {
		return nil, fmt.Errorf("client: tier response carried no tiers")
	}
	td.Values, err = multilevel.New().DecompressProgressive(td.Tiers)
	if err != nil {
		return nil, fmt.Errorf("client: decoding tiers: %w", err)
	}
	return td, nil
}
