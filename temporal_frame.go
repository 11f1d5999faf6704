package zmesh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// The one mapping between a temporal artifact and its ZMT1 wire frame, used by
// the session client, the daemon's append and replay paths and the seed
// generator. It lives here and not in internal/wire because this package's
// in-package tests already import internal/wire: wire importing the root would
// be a cycle under `go test`, the root importing wire (which knows only
// internal/frame and internal/compress) is not.

// WireFrame is the wire form of the frame; forced marks a keyframe emitted for
// stream recovery rather than a topology change. Payload and Structure alias c.
func (c *TemporalCompressed) WireFrame(forced bool) *wire.TemporalFrame {
	return &wire.TemporalFrame{
		Keyframe:  c.Keyframe,
		Forced:    forced,
		Field:     c.FieldName,
		Layout:    c.Layout.String(),
		Curve:     c.Curve,
		Codec:     c.Codec,
		NumValues: c.NumValues,
		Bound:     c.Bound,
		Structure: c.Structure,
		Payload:   c.Payload,
	}
}

// TemporalFromWire is the inverse of WireFrame (the forced bit stays on f). A
// frame naming an unknown layout, or LayoutAuto, is rejected: frames record the
// concrete order they were written in.
func TemporalFromWire(f *wire.TemporalFrame) (*TemporalCompressed, error) {
	layout, err := core.ParseLayout(f.Layout)
	if err != nil {
		return nil, err
	}
	if layout == LayoutAuto {
		return nil, fmt.Errorf("temporal frames must record a concrete layout: %w", ErrAutoLayout)
	}
	return &TemporalCompressed{
		Compressed: Compressed{
			FieldName: f.Field,
			Layout:    layout,
			Curve:     f.Curve,
			Codec:     f.Codec,
			NumValues: f.NumValues,
			Payload:   f.Payload,
		},
		Keyframe:  f.Keyframe,
		Structure: f.Structure,
		Bound:     f.Bound,
	}, nil
}
