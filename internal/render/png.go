// Package render turns terrain layouts into concrete artifacts: an
// isometric software-rendered PNG of the 3D terrain (the substitute
// for the paper's interactive OpenGL viewer), a 2D treemap PNG
// (Figure 5's linked 2D display), an SVG of the nested boundaries,
// and a Wavefront OBJ mesh for external 3D tools.
//
// Rendering is deterministic and allocation-conscious; the paper's
// interactive rotate/zoom operations map to the Angle and Zoom
// parameters here.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/terrain"
)

// Options configures terrain rendering.
type Options struct {
	// Width and Height are the output image dimensions in pixels.
	// Default 960×720.
	Width, Height int
	// Angle rotates the terrain around the vertical axis (radians),
	// the paper's "rotate" interaction. Default 0.6.
	Angle float64
	// Zoom scales the terrain about its center; 1 fits the whole
	// terrain, >1 zooms in (the paper's "zoom" interaction).
	Zoom float64
	// HeightFraction is the fraction of the image height the scalar
	// range occupies. Default 0.45.
	HeightFraction float64
	// Background fills the canvas. Default near-white.
	Background color.RGBA
}

func (o *Options) fill() {
	if o.Width <= 0 {
		o.Width = 960
	}
	if o.Height <= 0 {
		o.Height = 720
	}
	if o.Angle == 0 {
		o.Angle = 0.6
	}
	if o.Zoom <= 0 {
		o.Zoom = 1
	}
	if o.HeightFraction <= 0 {
		o.HeightFraction = 0.45
	}
	if o.Background == (color.RGBA{}) {
		o.Background = color.RGBA{250, 250, 248, 255}
	}
}

// TerrainPNG renders the heightmap as an isometric 3D terrain.
// nodeColor[s] colors cells owned by super node s; cells outside all
// boundaries use a neutral ground color. Each cell is a vertical
// column from the base plane to its height, with simple height- and
// slope-based shading; columns are ordered by depth and nearer ones
// hide farther ones.
func TerrainPNG(hm *terrain.Heightmap, nodeColor []color.RGBA, opts Options) *image.RGBA {
	opts.fill()
	img := image.NewRGBA(image.Rect(0, 0, opts.Width, opts.Height))
	fill(img, opts.Background)

	lo, hi := hm.MinMax()
	hRange := hi - lo
	if hRange == 0 {
		hRange = 1
	}
	sin, cos := math.Sin(opts.Angle), math.Cos(opts.Angle)

	// Projected footprint of the rotated unit square, to fit scale.
	maxR := (math.Abs(sin) + math.Abs(cos)) * 0.5
	scaleX := float64(opts.Width) * 0.48 / maxR * opts.Zoom
	scaleY := float64(opts.Height) * 0.26 / maxR * opts.Zoom
	zScale := float64(opts.Height) * opts.HeightFraction * opts.Zoom
	cx := float64(opts.Width) / 2
	cy := float64(opts.Height) * 0.72

	// project maps grid coordinates (gx, gy in [0,1]) and height to
	// screen space.
	project := func(gx, gy, h float64) (float64, float64) {
		x, y := gx-0.5, gy-0.5
		rx := x*cos - y*sin
		ry := x*sin + y*cos
		sx := cx + rx*scaleX
		sy := cy + ry*scaleY - (h-lo)/hRange*zScale
		return sx, sy
	}

	ground := color.RGBA{225, 222, 215, 255}
	w, h := hm.W, hm.H
	stepX := 1 / float64(w)
	stepY := 1 / float64(h)
	colW := int(math.Ceil(scaleX * stepX * 2))
	if colW < 1 {
		colW = 1
	}

	// Depth order: sort cells by projected depth. With a rotated
	// camera the back-to-front order over cells follows increasing
	// rx*sin + ry*cos... iterating the grid in the order of
	// increasing projected screen y of the base plane is sufficient
	// because columns are vertical. Compute base-plane depth per cell
	// and bucket rows by it.
	type cell struct {
		x, y  int
		depth float64
	}
	cells := make([]cell, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx, gy := (float64(x)+0.5)*stepX, (float64(y)+0.5)*stepY
			_, sy := project(gx, gy, lo)
			cells = append(cells, cell{x, y, sy})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].depth < cells[j].depth })

	// Draw front to back: per screen column, horizon holds the highest
	// pixel row a nearer terrain column already covers. A nearer column
	// has its base at or below every farther one's, so the covered part
	// of a farther column is always its span from the horizon down, and
	// only the rows above the horizon remain visible. Each pixel is
	// written once, with the same result as painting back to front.
	horizon := make([]int, opts.Width)
	for x := range horizon {
		horizon[x] = opts.Height
	}
	for i := len(cells) - 1; i >= 0; i-- {
		c := cells[i]
		gx, gy := (float64(c.x)+0.5)*stepX, (float64(c.y)+0.5)*stepY
		ht := hm.At(c.x, c.y)
		topX, topY := project(gx, gy, ht)
		_, baseY := project(gx, gy, lo)

		node := hm.NodeAt(c.x, c.y)
		var col color.RGBA
		if node < 0 || int(node) >= len(nodeColor) {
			col = ground
		} else {
			col = nodeColor[node]
		}
		// Slope shading: darken columns that are walls (lower than the
		// cell behind them is irrelevant; compare with right/down
		// neighbors for a simple relief cue) and lighten high plateaus.
		shade := 0.82 + 0.18*(ht-lo)/hRange
		side := scale(col, shade*0.62)
		top := scale(col, shade)

		x0 := int(topX) - colW/2
		drawColumn(img, horizon, x0, colW, int(topY), int(baseY), top, side)
	}
	return img
}

// drawColumn draws the visible part of one terrain column — inside the
// image and above each screen column's horizon — as a 2px top cap in
// the top color and the shaft in the side color, then raises the
// horizon to the column's top.
func drawColumn(img *image.RGBA, horizon []int, x0, w, yTop, yBase int, top, side color.RGBA) {
	if yBase < yTop {
		yTop, yBase = yBase, yTop
	}
	for x := max(x0, 0); x < min(x0+w, len(horizon)); x++ {
		for y := max(yTop, 0); y <= min(yBase, horizon[x]-1); y++ {
			if y-yTop < 2 {
				img.SetRGBA(x, y, top)
			} else {
				img.SetRGBA(x, y, side)
			}
		}
		horizon[x] = min(horizon[x], yTop)
	}
}

// TreemapPNG renders the layout's 2D treemap view (Figure 5(a)):
// boundaries at height zero, cells colored by node color, with darker
// 1px seams where ownership changes so the nesting reads clearly.
func TreemapPNG(hm *terrain.Heightmap, nodeColor []color.RGBA, width, height int) *image.RGBA {
	if width <= 0 {
		width = 720
	}
	if height <= 0 {
		height = 720
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	ground := color.RGBA{235, 233, 228, 255}
	for py := 0; py < height; py++ {
		for px := 0; px < width; px++ {
			x := px * hm.W / width
			y := py * hm.H / height
			node := hm.NodeAt(x, y)
			var col color.RGBA
			if node < 0 || int(node) >= len(nodeColor) {
				col = ground
			} else {
				col = nodeColor[node]
			}
			// Seam detection against the left/up cell.
			if x > 0 && hm.NodeAt(x-1, y) != node || y > 0 && hm.NodeAt(x, y-1) != node {
				col = scale(col, 0.55)
			}
			img.SetRGBA(px, py, col)
		}
	}
	return img
}

func fill(img *image.RGBA, c color.RGBA) {
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			img.SetRGBA(x, y, c)
		}
	}
}

func scale(c color.RGBA, f float64) color.RGBA {
	s := func(v uint8) uint8 {
		x := float64(v) * f
		if x > 255 {
			x = 255
		}
		return uint8(x)
	}
	return color.RGBA{s(c.R), s(c.G), s(c.B), c.A}
}

// WritePNG encodes img to path.
func WritePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		return fmt.Errorf("render: encoding %s: %w", path, err)
	}
	return nil
}

// EncodePNG encodes img to w.
func EncodePNG(w io.Writer, img image.Image) error {
	return png.Encode(w, img)
}
