// Package metrics provides the reporting primitives every experiment in
// this repository prints through: time series grouped into figures, and
// renderers for the rows and series the paper's tables and figures report
// (ASCII tables, ASCII line plots, CSV).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a named sequence of (x, y) points — one curve in a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value at the first x >= target using linear
// interpolation between the surrounding points; it assumes X is sorted
// ascending. Outside the range it clamps to the nearest endpoint.
func (s *Series) YAt(target float64) float64 {
	if len(s.X) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.X, target)
	if i == 0 {
		return s.Y[0]
	}
	if i >= len(s.X) {
		return s.Y[len(s.Y)-1]
	}
	x0, x1 := s.X[i-1], s.X[i]
	if x1 == x0 {
		return s.Y[i]
	}
	frac := (target - x0) / (x1 - x0)
	return s.Y[i-1]*(1-frac) + s.Y[i]*frac
}

// FirstXWhere returns the smallest x at which y >= threshold, or -1 if the
// series never reaches it. This extracts the paper's "dotted rectangle"
// convergence points (the budget at which all curves exceed 0.9).
func (s *Series) FirstXWhere(threshold float64) float64 {
	for i, y := range s.Y {
		if y >= threshold {
			return s.X[i]
		}
	}
	return -1
}

// Figure is a set of curves over a shared x-axis with axis labels; one per
// paper figure (or figure panel).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure constructs an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, registers, and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Lookup returns the series with the given name, or nil.
func (f *Figure) Lookup(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Table renders the figure as an aligned text table: the x column followed
// by one column per series. Series are sampled at the union of their x
// values (curves in one figure share x in this repository).
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	xs := f.unionX()
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(header))
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			row = append(row, trimFloat(s.YAt(x)))
		}
		rows = append(rows, row)
	}
	b.WriteString(RenderTable(header, rows))
	return b.String()
}

// CSV renders the figure in CSV form with the same layout as Table.
func (f *Figure) CSV() string {
	var b strings.Builder
	xs := f.unionX()
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteString("\n")
	for _, x := range xs {
		b.WriteString(trimFloat(x))
		for _, s := range f.Series {
			b.WriteString(",")
			b.WriteString(trimFloat(s.YAt(x)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (f *Figure) unionX() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// Plot renders an ASCII line plot of the figure, width x height characters
// of plotting area, one glyph per series. It is deliberately simple: the
// goal is a terminal-readable rendition of each paper figure's shape.
func (f *Figure) Plot(width, height int) string {
	if width < 8 || height < 4 {
		width, height = 72, 20
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return fmt.Sprintf("# %s\n(empty)\n", f.Title)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			col := int(float64(width-1) * (s.X[i] - xmin) / (xmax - xmin))
			row := height - 1 - int(float64(height-1)*(s.Y[i]-ymin)/(ymax-ymin))
			grid[row][col] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "# y: %s  [%s .. %s]\n", f.YLabel, trimFloat(ymin), trimFloat(ymax))
	for _, row := range grid {
		b.WriteString("| ")
		b.Write(row)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "+-%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "# x: %s  [%s .. %s]\n", f.XLabel, trimFloat(xmin), trimFloat(xmax))
	for si, s := range f.Series {
		fmt.Fprintf(&b, "#   %c = %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// RenderTable renders a right-aligned text table with a header row.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
