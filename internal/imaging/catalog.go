package imaging

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Catalog builds the synthetic stand-ins for the paper's Table 8 input
// images. We do not have the photographic originals (mandrill, lenna, …);
// each stand-in matches its original's geometry, pixel kind, band count
// and — approximately — its measured full-image entropy, which Figure 2
// shows is the property hit ratios respond to. Generation is
// deterministic.

// Input is one named workload input.
type Input struct {
	Name string
	// Desc summarizes the original image this input stands in for.
	Desc string
	// TargetEntropy is the paper's measured full-image entropy (bits);
	// zero for FLOAT images, for which Table 8 reports none.
	TargetEntropy float64
	Image         *Image
}

// gen renders one w×h plane of an input.
type gen func(w, h int) *Image

// spec is one catalog input before it is built: its metadata, its
// geometry, and one generator call per band. Every call has its own
// seed, so the pixels do not depend on the order the calls run in.
type spec struct {
	name, desc string
	target     float64
	w, h       int
	bands      []gen
}

func specs() []spec {
	return []spec{
		{
			name: "mandrill", desc: "256x256 BYTE, high-detail primate photo",
			target: 7.34, w: 256, h: 256,
			bands: []gen{photo(101, 0.62, 0.22, 256)},
		},
		{
			name: "nature", desc: "256x256 BYTE, natural scene",
			target: 7.38, w: 256, h: 256,
			bands: []gen{photo(102, 0.60, 0.25, 256)},
		},
		{
			name: "Muppet1", desc: "240x256 BYTE, studio scene",
			target: 7.04, w: 256, h: 240,
			bands: []gen{photo(103, 0.62, 0.12, 168)},
		},
		{
			name: "guya", desc: "128x128 BYTE, portrait",
			target: 6.99, w: 128, h: 128,
			bands: []gen{photo(104, 0.62, 0.11, 160)},
		},
		{
			name: "star", desc: "158x158 BYTE, star field",
			target: 5.93, w: 158, h: 158,
			bands: []gen{photo(105, 0.60, 0.05, 90)},
		},
		{
			name: "chroms", desc: "64x64 BYTE, chromosome spread",
			target: 4.82, w: 64, h: 64,
			bands: []gen{func(w, h int) *Image { return blobsQuantized(w, h, 12, 106, 40) }},
		},
		{
			name: "airport1", desc: "256x256 BYTE, aerial view",
			target: 4.47, w: 256, h: 256,
			bands: []gen{func(w, h int) *Image { return gammaQuantized(w, h, 107, 3.0, 48) }},
		},
		{
			name: "lablabel", desc: "243x486 INTEGER, labelled lab scene",
			target: 3.37, w: 243, h: 486,
			bands: []gen{func(w, h int) *Image { return Labels(w, h, 12, 108) }},
		},
		{
			name: "fractal", desc: "450x409 BYTE, fractal over flat background",
			target: 1.42, w: 450, h: 409,
			bands: []gen{func(w, h int) *Image { return fractalByte(w, h, 109) }},
		},
		{
			name: "head", desc: "228x256 FLOAT, MRI head section",
			w: 228, h: 256,
			bands: []gen{func(w, h int) *Image { return GaussianBlobs(w, h, 24, 110) }},
		},
		{
			name: "spine", desc: "228x256 FLOAT, MRI spine section",
			w: 228, h: 256,
			bands: []gen{func(w, h int) *Image { return GaussianBlobs(w, h, 30, 111) }},
		},
		{
			name: "lenna.rgb", desc: "480x512 BYTE x3, portrait",
			target: 7.75, w: 480, h: 512,
			bands: []gen{
				photo(112, 0.62, 0.60, 256),
				photo(113, 0.62, 0.60, 256),
				photo(114, 0.62, 0.60, 256),
			},
		},
		{
			name: "mandril.rgb", desc: "480x512 BYTE x3, primate photo",
			target: 7.75, w: 480, h: 512,
			bands: []gen{
				photo(115, 0.62, 0.60, 256),
				photo(116, 0.62, 0.60, 256),
				photo(117, 0.62, 0.60, 256),
			},
		},
		{
			name: "lizard.rgb", desc: "512x768 BYTE x3, reptile skin texture",
			target: 7.60, w: 512, h: 768,
			bands: []gen{
				photo(118, 0.62, 0.42, 256),
				photo(119, 0.62, 0.42, 256),
				photo(120, 0.62, 0.42, 256),
			},
		},
	}
}

// photo is one photographic band.
func photo(seed int64, roughness, noise float64, levels int) gen {
	return func(w, h int) *Image { return photographic(w, h, seed, roughness, noise, levels) }
}

// entry is one input being built. Each band is one memoised generator
// call; a multi-band input's calls write their bands straight into its
// stacked image and drop the plane, so no more than one plane per
// worker is alive at once.
type entry struct {
	spec
	bands []func()      // one memoised generator call per band
	alloc sync.Once     // allocates img for a multi-band input
	img   *Image        // the input, complete once every band has run
	image func() *Image // memoised: runs every band, returns img
}

func newEntry(s spec, calls *atomic.Int32) *entry {
	e := &entry{spec: s}
	for b, g := range s.bands {
		e.bands = append(e.bands, sync.OnceFunc(func() {
			calls.Add(1)
			plane := g(s.w, s.h)
			if len(s.bands) == 1 {
				e.img = plane
				return
			}
			e.alloc.Do(func() { e.img = New(s.w, s.h, len(s.bands), plane.Kind) })
			e.img.setBand(b, plane)
		}))
	}
	e.image = sync.OnceValue(func() *Image {
		run(runtime.GOMAXPROCS(0), e.bands)
		return e.img
	})
	return e
}

// input builds the input if no one has yet and returns it.
func (e *entry) input() Input {
	return Input{Name: e.name, Desc: e.desc, TargetEntropy: e.target, Image: e.image()}
}

// builder builds one catalog. Catalog and Find share one builder, so
// each generator call runs once per process however the two interleave.
type builder struct {
	entries []*entry
	all     func() []Input
	calls   atomic.Int32 // generator calls made
}

func newBuilder() *builder {
	b := &builder{}
	for _, s := range specs() {
		b.entries = append(b.entries, newEntry(s, &b.calls))
	}
	b.all = sync.OnceValue(func() []Input { return b.build(runtime.GOMAXPROCS(0)) })
	return b
}

// build runs every band of every input on at most workers goroutines,
// largest first, and returns the inputs in catalog order.
func (b *builder) build(workers int) []Input {
	largest := slices.Clone(b.entries)
	slices.SortStableFunc(largest, func(x, y *entry) int { return y.w*y.h - x.w*x.h })
	var bands []func()
	for _, e := range largest {
		bands = append(bands, e.bands...)
	}
	run(workers, bands)
	out := make([]Input, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.input()
	}
	return out
}

// run calls every job, in order, on at most workers goroutines.
func run(workers int, jobs []func()) {
	workers = min(workers, len(jobs))
	if workers <= 1 {
		for _, j := range jobs {
			j()
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// std is the process's catalog.
var std = newBuilder()

// Catalog returns the fourteen Table 8 inputs, built once on at most
// GOMAXPROCS goroutines. The returned images are shared, so treat them
// as read-only and Clone before modifying.
func Catalog() []Input { return std.all() }

// buildCatalog builds a fresh catalog, sharing nothing with Catalog's.
func buildCatalog() []Input { return newBuilder().all() }

// Find returns the catalog input with the given name, or nil. It builds
// only that input; its image is the one Catalog returns.
func Find(name string) *Input {
	for _, e := range std.entries {
		if e.name == name {
			in := e.input()
			return &in
		}
	}
	return nil
}

// photographic blends plasma structure with pixel noise and quantizes:
// the texture/entropy profile of a photographic byte image. noise is the
// blend weight of the uniform-noise field.
func photographic(w, h int, seed int64, roughness, noise float64, levels int) *Image {
	im := Plasma(w, h, seed, roughness)
	// Blend(im, Noise(w, h, seed+5000), noise) in place: the same draws
	// and sums without either copy.
	rng := rand.New(rand.NewSource(seed + 5000))
	for i := range im.Pix {
		im.Pix[i] += noise * rng.Float64()
	}
	im.Quantize(levels)
	im.Kind = Byte
	return im
}

// blobsQuantized renders blob structure on a dark field.
func blobsQuantized(w, h, n int, seed int64, levels int) *Image {
	im := GaussianBlobs(w, h, n, seed)
	im.Quantize(levels)
	im.Kind = Byte
	return im
}

// gammaQuantized concentrates a plasma histogram before quantizing,
// lowering its entropy at a fixed level count.
func gammaQuantized(w, h int, seed int64, gamma float64, levels int) *Image {
	im := Gamma(Plasma(w, h, seed, 0.55), gamma)
	im.Quantize(levels)
	im.Kind = Byte
	return im
}

// fractalByte quantizes a fractal basin to byte levels.
func fractalByte(w, h int, seed int64) *Image {
	im := FractalBasin(w, h, seed)
	im.Quantize(256)
	im.Kind = Byte
	return im
}
