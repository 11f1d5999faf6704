package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	zmesh "repro"
)

// blast is one analytic Sedov-like blast wave: a steep spherical density
// front that drives refinement, pressure decaying behind it, and a radial
// velocity peaking just behind the front. The seed jitters centre, front
// radius/width and amplitudes. The jitter is small on purpose: the driver
// takes each metric's spread across runs with different seeds, so cell counts
// and compressibility must not move more than the timings' own noise.
type blast struct {
	c          [3]float64
	r0, w      float64
	aD, aP, aV float64
}

func newBlast(seed int64) blast {
	rng := rand.New(rand.NewSource(seed))
	j := func(scale float64) float64 { return (rng.Float64()*2 - 1) * scale }
	return blast{
		c:  [3]float64{0.5 + j(0.004), 0.5 + j(0.004), 0.5 + j(0.004)},
		r0: 0.31 + j(0.002),
		w:  0.01 * (1 + j(0.01)),
		aD: 0.875 * (1 + j(0.01)),
		aP: 0.9 * (1 + j(0.01)),
		aV: 1 + j(0.01),
	}
}

// at returns the blast with its front moved outward by step front-widths —
// the moving front of the regrid and temporal workloads.
func (b blast) at(step float64) blast {
	b.r0 += step * b.w
	return b
}

// drift returns the blast with its centre moved: a different topology of
// about the same size.
func (b blast) drift(dx, dy, dz float64) blast {
	b.c[0] += dx
	b.c[1] += dy
	b.c[2] += dz
	return b
}

func (b blast) radius(x, y, z float64) float64 {
	dx, dy, dz := x-b.c[0], y-b.c[1], z-b.c[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

func (b blast) front(r float64) float64 { return 1 / (1 + math.Exp((r-b.r0)/b.w)) }

// fieldNames lists the quantities a dataset can carry, in generation order.
var fieldNames = []string{"dens", "pres", "velr", "ener", "velx"}

// fn returns the sampler of one quantity. A 2-D mesh samples at z = 0, so
// the blast is centred on that plane there.
func (b blast) fn(name string, dims int) func(x, y, z float64) float64 {
	if dims == 2 {
		b.c[2] = 0
	}
	switch name {
	case "dens":
		return func(x, y, z float64) float64 {
			r := b.radius(x, y, z)
			return 0.125 + b.aD*b.front(r) + 0.1*math.Exp(-r*r/0.02)
		}
	case "pres":
		return func(x, y, z float64) float64 {
			r := b.radius(x, y, z)
			return 0.1 + b.aP*b.front(r) + 2*math.Exp(-r*r/0.005)
		}
	case "velr":
		return func(x, y, z float64) float64 {
			r := b.radius(x, y, z)
			s := (r - b.r0) / (3 * b.w)
			return b.aV * r / b.r0 * math.Exp(-s*s/2)
		}
	case "ener":
		return func(x, y, z float64) float64 {
			r := b.radius(x, y, z)
			return 0.25 + 2.5*b.aP*b.front(r)/(0.125+b.aD*b.front(r))
		}
	case "velx":
		return func(x, y, z float64) float64 {
			r := b.radius(x, y, z)
			s := (r - b.r0) / (3 * b.w)
			return b.aV * (x - b.c[0]) / b.r0 * math.Exp(-s*s/2)
		}
	}
	panic("bench: unknown field " + name)
}

// size names one of the three input scales.
type size struct {
	name     string
	dims     int
	rootDims [3]int
	depth    int
	block    int // cells per block edge
}

var (
	small2D = size{"small-2d", 2, [3]int{4, 4, 1}, 3, 8}
	mid3D   = size{"mid-3d", 3, [3]int{2, 2, 2}, 2, 8}
	big3D   = size{"big-3d", 3, [3]int{2, 2, 2}, 3, 8}
	tiny3D  = size{"tiny-3d", 3, [3]int{2, 2, 2}, 2, 4} // -smoke only
)

const refineThreshold = 0.35

// dataset is one hierarchy with the level-order value stream of each field —
// the only thing the program under test ever receives.
type dataset struct {
	mesh      *zmesh.Mesh
	structure []byte
	names     []string
	fields    []*zmesh.Field
	values    [][]float64
}

func (d *dataset) cells() int    { return len(d.values[0]) }
func (d *dataset) rawBytes() int { return 8 * d.cells() }

// structureHash identifies the topology (hex SHA-256 of the tree metadata).
func (d *dataset) structureHash() string {
	h := sha256.Sum256(d.structure)
	return hex.EncodeToString(h[:])
}

// describe is the note a section leaves about an input: its size next to the
// machine's caches tells whether a number is cache-resident.
func (d *dataset) describe(sz size) string {
	return fmt.Sprintf("%s %d cells in %d blocks, %.2f MB/field", sz.name, d.cells(), d.mesh.NumBlocks(), float64(d.rawBytes())/1e6)
}

// buildDataset adapts a hierarchy to the blast's density front and samples
// the first nFields quantities onto it, through the public API only.
func buildDataset(b blast, sz size, nFields int) (*dataset, error) {
	mesh, first, err := zmesh.BuildAdaptive(zmesh.BuildOptions{
		Dims:      sz.dims,
		BlockSize: sz.block,
		RootDims:  sz.rootDims,
		MaxDepth:  sz.depth,
		Threshold: refineThreshold,
	}, b.fn("dens", sz.dims))
	if err != nil {
		return nil, fmt.Errorf("building %s hierarchy: %w", sz.name, err)
	}
	first.Name = "dens"
	d := &dataset{mesh: mesh, structure: mesh.Structure()}
	d.add(first)
	for _, name := range fieldNames[1:nFields] {
		d.add(zmesh.SampleField(mesh, name, b.fn(name, sz.dims)))
	}
	return d, nil
}

func (d *dataset) add(f *zmesh.Field) {
	d.names = append(d.names, f.Name)
	d.fields = append(d.fields, f)
	d.values = append(d.values, zmesh.FieldValues(f))
}

// resample returns the same hierarchy carrying the fields of another blast
// (the front moved without a regrid).
func (d *dataset) resample(b blast) *dataset {
	out := &dataset{mesh: d.mesh, structure: d.structure}
	for _, name := range d.names {
		out.add(zmesh.SampleField(d.mesh, name, b.fn(name, d.mesh.Dims())))
	}
	return out
}

// movingFront builds n datasets along the blast's path — the front advancing
// one width and the centre drifting a little per step — and keeps only steps
// whose topology differs from every earlier one, so each is a real regrid.
func movingFront(b blast, sz size, n, nFields int) ([]*dataset, error) {
	var out []*dataset
	seen := make(map[string]bool)
	for k := 0; len(out) < n; k++ {
		if k > 8*n {
			return nil, fmt.Errorf("%s: only %d distinct topologies in %d steps", sz.name, len(out), k)
		}
		f := float64(k)
		ds, err := buildDataset(b.at(f).drift(0.017*f, 0.011*f, 0.007*f), sz, nFields)
		if err != nil {
			return nil, err
		}
		if h := ds.structureHash(); !seen[h] {
			seen[h] = true
			out = append(out, ds)
		}
	}
	return out, nil
}
