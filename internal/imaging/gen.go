package imaging

import (
	"math"
	"math/rand"
)

// Generators for synthetic test inputs. Each produces a continuous field
// whose structure mimics one family of the paper's photographic inputs;
// quantization then fixes the discrete entropy. Entropy is tuned by the
// quantization level count and by how concentrated the field's value
// distribution is.

// Plasma fills a w×h single-band Float image with diamond-square
// ("plasma") fractal terrain in [0, 1]: locally smooth with large-scale
// variation, the texture profile of natural photographs.
func Plasma(w, h int, seed int64, roughness float64) *Image {
	rng := rand.New(rand.NewSource(seed))
	// Work on a (2^k+1)² grid covering the image, then crop. The grid is
	// one flat slice; row(y) is its y-th row.
	n := 1
	for n+1 < w || n+1 < h {
		n <<= 1
	}
	m := n + 1
	g := make([]float64, m*m)
	row := func(y int) []float64 { return g[y*m : y*m+m] }
	g[0], g[n], g[n*m], g[n*m+n] =
		rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
	amp := 1.0
	for step := n; step > 1; step /= 2 {
		half := step / 2
		// Diamond step.
		for y := half; y < m; y += step {
			up, cur, down := row(y-half), row(y), row(y+half)
			for x := half; x < m; x += step {
				avg := (up[x-half] + up[x+half] +
					down[x-half] + down[x+half]) / 4
				cur[x] = avg + (rng.Float64()-0.5)*amp
			}
		}
		// Square step.
		for y := 0; y < m; y += half {
			x0 := half
			if (y/half)%2 == 1 {
				x0 = 0
			}
			var up, down []float64
			if y >= half {
				up = row(y - half)
			}
			if y+half <= n {
				down = row(y + half)
			}
			cur := row(y)
			for x := x0; x < m; x += step {
				var sum float64
				var cnt int
				if up != nil {
					sum += up[x]
					cnt++
				}
				if down != nil {
					sum += down[x]
					cnt++
				}
				if x >= half {
					sum += cur[x-half]
					cnt++
				}
				if x+half <= n {
					sum += cur[x+half]
					cnt++
				}
				cur[x] = sum/float64(cnt) + (rng.Float64()-0.5)*amp
			}
		}
		amp *= roughness
	}
	// Crop and normalise straight into the image.
	lo, hi := math.Inf(1), math.Inf(-1)
	for y := 0; y < h; y++ {
		for _, v := range row(y)[:w] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	im := New(w, h, 1, Float)
	for y := 0; y < h; y++ {
		out := im.Pix[y*w : y*w+w]
		for x, v := range row(y)[:w] {
			out[x] = (v - lo) / span
		}
	}
	return im
}

// Noise fills a w×h single-band image with independent uniform samples,
// the highest-entropy field.
func Noise(w, h int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := New(w, h, 1, Float)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

// Blend returns a + alpha*b sample-wise (same geometry required).
func Blend(a, b *Image, alpha float64) *Image {
	if a.W != b.W || a.H != b.H || a.Bands != b.Bands {
		panic("imaging: Blend geometry mismatch")
	}
	out := a.Clone()
	for i := range out.Pix {
		out.Pix[i] += alpha * b.Pix[i]
	}
	return out
}

// GaussianBlobs renders n additive Gaussian intensity blobs at random
// positions and scales: smooth fields with concentrated histograms (lower
// entropy than plasma at equal levels).
func GaussianBlobs(w, h, n int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := New(w, h, 1, Float)
	// den is 2σ², the Gaussian's denominator.
	type blob struct{ cx, cy, den, amp float64 }
	blobs := make([]blob, n)
	for i := range blobs {
		cx := rng.Float64() * float64(w)
		cy := rng.Float64() * float64(h)
		sigma := (0.05 + 0.15*rng.Float64()) * float64(min(w, h))
		blobs[i] = blob{cx: cx, cy: cy, den: 2 * sigma * sigma, amp: 0.3 + rng.Float64()}
	}
	for y := 0; y < h; y++ {
		out := im.Pix[y*w : y*w+w]
		for x := range out {
			var v float64
			for _, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				v += b.amp * math.Exp(-(dx*dx+dy*dy)/b.den)
			}
			out[x] = v
		}
	}
	return im
}

// Labels builds an Integer label map of k Voronoi regions — the shape of
// the paper's "lablabel" input (a labelled laboratory scene): very low
// windowed entropy, moderate global entropy.
func Labels(w, h, k int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	type site struct{ x, y float64 }
	sites := make([]site, k)
	for i := range sites {
		sites[i] = site{rng.Float64() * float64(w), rng.Float64() * float64(h)}
	}
	im := New(w, h, 1, Integer)
	for y := 0; y < h; y++ {
		out := im.Pix[y*w : y*w+w]
		for x := range out {
			best, bd := 0, math.Inf(1)
			for i, s := range sites {
				dx, dy := float64(x)-s.x, float64(y)-s.y
				if d := dx*dx + dy*dy; d < bd {
					bd, best = d, i
				}
			}
			out[x] = float64(best)
		}
	}
	return im
}

// FractalBasin renders an escape-time fractal over a mostly-uniform
// background: the profile of the paper's "fractal" input, whose entropy
// is very low (1.42 bits) because most pixels share the background value.
func FractalBasin(w, h int, seed int64) *Image {
	im := New(w, h, 1, Float)
	rng := rand.New(rand.NewSource(seed))
	cr := -0.74 + 0.02*rng.Float64()
	ci := 0.11 + 0.02*rng.Float64()
	const maxIter = 32
	for y := 0; y < h; y++ {
		out := im.Pix[y*w : y*w+w]
		for x := range out {
			zr := (float64(x)/float64(w))*3 - 1.5
			zi := (float64(y)/float64(h))*3 - 1.5
			it := 0
			for ; it < maxIter; it++ {
				zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
				if zr*zr+zi*zi > 4 {
					break
				}
			}
			v := 0.0
			if it < maxIter && it >= 2 {
				v = float64(it) / maxIter
			}
			out[x] = v
		}
	}
	return im
}

// Ramp renders a smooth diagonal gradient, useful as a near-deterministic
// elevation input for slope workloads.
func Ramp(w, h int) *Image {
	im := New(w, h, 1, Float)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, 0, float64(x+y)/float64(w+h-2))
		}
	}
	return im
}

// Multi stacks n single-band images of one geometry and kind into one
// n-band image.
func Multi(bands ...*Image) *Image {
	if len(bands) == 0 {
		panic("imaging: Multi needs at least one band")
	}
	out := New(bands[0].W, bands[0].H, len(bands), bands[0].Kind)
	for b, im := range bands {
		out.setBand(b, im)
	}
	return out
}

// setBand copies the single-band image im, of out's geometry and kind,
// into band b of out.
func (out *Image) setBand(b int, im *Image) {
	if im.W != out.W || im.H != out.H || im.Bands != 1 || im.Kind != out.Kind {
		panic("imaging: Multi band geometry mismatch")
	}
	for i, v := range im.Pix {
		out.Pix[i*out.Bands+b] = v
	}
}

// Gamma raises all samples (assumed in [0,1]) to the given power,
// concentrating (gamma > 1) or spreading the histogram.
func Gamma(im *Image, gamma float64) *Image {
	out := im.Clone()
	for i, v := range out.Pix {
		out.Pix[i] = math.Pow(Clamp(v, 0, 1), gamma)
	}
	return out
}
