package imaging

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(4, 3, 2, Byte)
	im.Set(2, 1, 1, 7)
	if im.At(2, 1, 1) != 7 {
		t.Fatal("Set/At round trip")
	}
	if im.At(0, 0, 0) != 0 {
		t.Fatal("zero init")
	}
	// Addresses are 8 bytes apart sample-to-sample; package-level images
	// are detached until an AddressSpace places them.
	if im.Addr(1, 0, 0)-im.Addr(0, 0, 1) != 8 {
		t.Fatal("address stride")
	}
	if im.Base != 0 {
		t.Fatal("detached image carries a base address")
	}
	as := NewAddressSpace()
	if other := as.New(4, 3, 2, Byte); other.Base == as.New(4, 3, 2, Byte).Base {
		t.Fatal("space images share a base address")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid geometry accepted")
		}
	}()
	New(0, 3, 1, Byte)
}

func TestCloneIsDeep(t *testing.T) {
	im := New(2, 2, 1, Float)
	im.Set(0, 0, 0, 5)
	c := im.Clone()
	c.Set(0, 0, 0, 9)
	if im.At(0, 0, 0) != 5 {
		t.Fatal("clone aliases parent")
	}
}

func TestQuantize(t *testing.T) {
	im := New(16, 1, 1, Float)
	for x := 0; x < 16; x++ {
		im.Set(x, 0, 0, float64(x)/15)
	}
	im.Quantize(4)
	lo, hi := im.MinMax(0)
	if lo != 0 || hi != 3 {
		t.Fatalf("quantized range [%g,%g]", lo, hi)
	}
	h := im.Histogram(0)
	if h.Distinct() != 4 {
		t.Fatalf("distinct = %d", h.Distinct())
	}
	// Constant image quantizes to all zeros.
	flat := New(4, 4, 1, Float)
	for i := range flat.Pix {
		flat.Pix[i] = 2.5
	}
	flat.Quantize(8)
	if _, hi := flat.MinMax(0); hi != 0 {
		t.Fatal("flat image quantization")
	}
}

func TestEntropyWorkedExample(t *testing.T) {
	// The paper's worked example: 256 evenly distributed grey levels give
	// entropy 8; window entropies of small tiles are strictly smaller
	// because most values have probability zero there.
	im := New(256, 256, 1, Byte)
	i := 0
	for y := 0; y < 256; y++ {
		for x := 0; x < 256; x++ {
			im.Set(x, y, 0, float64(i%256))
			i++
		}
	}
	if e := im.Entropy(); math.Abs(e-8) > 1e-9 {
		t.Fatalf("entropy = %g, want 8", e)
	}
	if w := im.WindowEntropy(8); w > 6.001 {
		t.Fatalf("8x8 window entropy = %g, want <= 6", w)
	}
}

func TestWindowEntropyBelowFull(t *testing.T) {
	for _, in := range Catalog() {
		full := in.Image.Entropy()
		w16 := in.Image.WindowEntropy(16)
		w8 := in.Image.WindowEntropy(8)
		if w16 > full+1e-9 || w8 > w16+1e-9 {
			t.Errorf("%s: entropies not decreasing: full %.2f w16 %.2f w8 %.2f",
				in.Name, full, w16, w8)
		}
	}
}

func TestCatalogMatchesPaperEntropies(t *testing.T) {
	for _, in := range Catalog() {
		if in.TargetEntropy == 0 {
			continue // FLOAT inputs: no paper entropy
		}
		got := in.Image.Entropy()
		if math.Abs(got-in.TargetEntropy) > 0.5 {
			t.Errorf("%s: entropy %.2f vs paper %.2f (tolerance 0.5)",
				in.Name, got, in.TargetEntropy)
		}
	}
}

func TestCatalogGeometry(t *testing.T) {
	dims := map[string][4]int{ // w, h, bands, kind
		"mandrill":  {256, 256, 1, int(Byte)},
		"Muppet1":   {256, 240, 1, int(Byte)},
		"lablabel":  {243, 486, 1, int(Integer)},
		"head":      {228, 256, 1, int(Float)},
		"lenna.rgb": {480, 512, 3, int(Byte)},
	}
	for name, want := range dims {
		in := Find(name)
		if in == nil {
			t.Errorf("missing catalog entry %s", name)
			continue
		}
		if in.Image.W != want[0] || in.Image.H != want[1] ||
			in.Image.Bands != want[2] || int(in.Image.Kind) != want[3] {
			t.Errorf("%s geometry %dx%dx%d %v", name,
				in.Image.W, in.Image.H, in.Image.Bands, in.Image.Kind)
		}
	}
	if Find("nonexistent") != nil {
		t.Error("Find invented an input")
	}
}

// catalogDigests pins every input's pixels: a SHA-256 over W, H, Bands,
// Kind and the Float64bits of each sample. They were recorded from the
// generators as they stood before the flat-grid and in-place kernels, so
// any rewrite of a generator must reproduce the old bits exactly.
var catalogDigests = map[string]string{
	"mandrill":    "7e54e8b7831de04d6f76e0bb360afb1eb67f1abd460036344311f80d3ab58b4b",
	"nature":      "d6ee4504fea24b3fe2a932b71cafec1a95777efbd15a3ae93c686c8bb56abc6b",
	"Muppet1":     "ee3c08e754b38ad9f3f6d8a9b7605ea0f4eca852eb43d64994d1c91ed1cbc902",
	"guya":        "bf8d6995929e0ca1ea22022883432ba53accce0aeb4292c816cfe22ffbb1726c",
	"star":        "5223315168c532411b93f22a578160540f22bbc29728d3396f079c7668050831",
	"chroms":      "0221f229827b1d40ac02b97ba922d0e1826623e8c7ceef9c2b0983e2dabd6b7a",
	"airport1":    "8459c88071e1abea0bd89f68aa48fba63875bc2180e6ea373bb8b16fcc37110d",
	"lablabel":    "5e5947c802e431dec5378311efe61d7724fc93ce73c1843bbe177123a090f200",
	"fractal":     "8bdc183b813816fe43200107a397ccf29b7b4c75929a32802af3d363b28e4426",
	"head":        "570fe8ad981afdc6dfa1eb45b409ee0d4f1f7a777324f9504df8a95465ab353a",
	"spine":       "8588a21a1b6d3d9fe825cfab5e64b14c41ef6ec137779374ecf8456ebc08bab5",
	"lenna.rgb":   "c117b30ab0c57e6187697efa61dace3f502c1f8f752f1cefd72a4a80788c0a10",
	"mandril.rgb": "bd3ad004175a265e83374ddcf92ed70347f99f526be1898f404eba20b7d13121",
	"lizard.rgb":  "1d888388fe670ed91838c879e42bfbbd0c714b6348b40704b8daf0c17f6753e6",
}

func imageDigest(im *Image) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []int{im.W, im.H, im.Bands, int(im.Kind)} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, p := range im.Pix {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCatalogDeterministic(t *testing.T) {
	a, b := buildCatalog(), buildCatalog()
	if len(a) != len(catalogDigests) || len(b) != len(a) {
		t.Fatalf("catalog sizes %d, %d; %d digests", len(a), len(b), len(catalogDigests))
	}
	for i, in := range a {
		if in.Image == b[i].Image {
			t.Fatalf("%s: two fresh builds share an image", in.Name)
		}
		got, again := imageDigest(in.Image), imageDigest(b[i].Image)
		if got != again {
			t.Errorf("%s: two fresh builds differ", in.Name)
		}
		if want := catalogDigests[in.Name]; got != want {
			t.Errorf("%s: pixel digest %s, want %s", in.Name, got, want)
		}
	}
}

// TestCatalogConcurrent mixes Catalog and Find on one fresh builder: every
// caller sees the same images, a Find that runs first hands out the image
// Catalog later returns, and no generator runs twice.
func TestCatalogConcurrent(t *testing.T) {
	b := newBuilder()
	early := b.entries[len(b.entries)-1].input() // a multi-band input, before the rest
	names := make([]string, len(b.entries))
	for i, e := range b.entries {
		names[i] = e.name
	}
	const goroutines = 8
	seen := make([][]*Image, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen[g] = make([]*Image, len(names))
			if g%2 == 0 {
				for i, in := range b.all() {
					seen[g][i] = in.Image
				}
				return
			}
			for i := range names {
				// Odd goroutines walk the inputs from different ends.
				j := i
				if g%4 == 3 {
					j = len(names) - 1 - i
				}
				seen[g][j] = b.entries[j].input().Image
			}
		}()
	}
	wg.Wait()
	all := b.all()
	if all[len(all)-1].Image != early.Image {
		t.Error("Catalog rebuilt an input that an earlier lookup had built")
	}
	for g, ims := range seen {
		for i, im := range ims {
			if im != all[i].Image {
				t.Errorf("goroutine %d got a different %s", g, names[i])
			}
		}
	}
	for i, in := range Catalog() {
		if Find(in.Name).Image != in.Image {
			t.Errorf("Find and Catalog disagree on %s", names[i])
		}
	}
	var bands int32
	for _, e := range b.entries {
		bands += int32(len(e.bands))
	}
	if got := b.calls.Load(); got != bands {
		t.Errorf("%d generator calls for %d bands", got, bands)
	}
}

func BenchmarkCatalog(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pool", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				newBuilder().build(bc.workers)
			}
		})
	}
}

func TestGenerators(t *testing.T) {
	p := Plasma(64, 48, 1, 0.6)
	lo, hi := p.MinMax(0)
	if lo < 0 || hi > 1 || hi-lo < 0.5 {
		t.Errorf("plasma range [%g,%g]", lo, hi)
	}
	n := Noise(32, 32, 2)
	if n.Histogram(0).Distinct() < 1000 {
		t.Error("noise insufficiently random")
	}
	l := Labels(64, 64, 5, 3)
	if d := l.Histogram(0).Distinct(); d != 5 {
		t.Errorf("labels distinct = %d", d)
	}
	r := Ramp(8, 8)
	if r.At(0, 0, 0) != 0 || r.At(7, 7, 0) != 1 {
		t.Error("ramp endpoints")
	}
	g := GaussianBlobs(32, 32, 3, 4)
	if _, hi := g.MinMax(0); hi <= 0 {
		t.Error("blobs empty")
	}
	f := FractalBasin(64, 64, 5)
	if f.Histogram(0).Distinct() < 3 {
		t.Error("fractal degenerate")
	}
}

func TestBlendAndMultiPanic(t *testing.T) {
	mustPanic(t, func() { Blend(New(2, 2, 1, Float), New(3, 2, 1, Float), 1) })
	mustPanic(t, func() { Multi() })
	mustPanic(t, func() { Multi(New(2, 2, 1, Float), New(3, 2, 1, Float)) })
	mustPanic(t, func() { Multi(New(2, 2, 1, Float), New(2, 2, 1, Byte)) })
	mustPanic(t, func() { New(2, 2, 1, Float).Quantize(1) })
	mustPanic(t, func() { New(2, 2, 1, Float).WindowEntropy(0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestPGMRoundTrip(t *testing.T) {
	im := New(13, 7, 1, Byte)
	for y := 0; y < 7; y++ {
		for x := 0; x < 13; x++ {
			im.Set(x, y, 0, float64((x*19+y*7)%256))
		}
	}
	var buf bytes.Buffer
	if err := EncodePGM(&buf, im, 0); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 13 || got.H != 7 {
		t.Fatalf("decoded %dx%d", got.W, got.H)
	}
	for i := range im.Pix {
		if im.Pix[i] != got.Pix[i] {
			t.Fatalf("pixel %d: %g vs %g", i, im.Pix[i], got.Pix[i])
		}
	}
}

func TestPGMErrors(t *testing.T) {
	if err := EncodePGM(&bytes.Buffer{}, New(2, 2, 1, Byte), 5); err == nil {
		t.Error("bad band accepted")
	}
	if _, err := DecodePGM(bytes.NewReader([]byte("P6\n2 2\n255\n"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodePGM(bytes.NewReader([]byte("P5\n2 2\n255\nX"))); err == nil {
		t.Error("truncated raster accepted")
	}
	if _, err := DecodePGM(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1, 0, 1) != 0 || Clamp(2, 0, 1) != 1 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}
