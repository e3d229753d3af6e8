package report

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// The typed result model. Experiment drivers build Result trees —
// tables, scalars with units, and groups of those — instead of
// pre-rendered strings; rendering to the paper text layout (Text) and to
// JSON (JSON) lives entirely in this package. The text renderer is pinned
// byte-for-byte by the golden tests, so a Result-producing driver emits
// exactly the bytes its Sprintf-built predecessor did.

// CellKind selects how a table cell formats in the text layout. The
// kinds preserve the legacy formatting semantics exactly: Ratio trims
// the leading zero and prints '-' for NaN, Fixed prints '-' for NaN,
// Float mirrors fmt.Sprintf("%.*f", ...) including its "NaN" spelling.
type CellKind uint8

// Cell kinds.
const (
	CellString CellKind = iota
	CellInt
	CellRatio
	CellFixed
	CellFloat
)

// Cell is one typed table cell: the raw value plus its formatting kind,
// so text rendering stays byte-identical while JSON carries the number.
type Cell struct {
	Kind  CellKind
	Str   string
	Int   int64
	Float float64
	Prec  int
}

// Str builds a string cell (names, labels).
func Str(s string) Cell { return Cell{Kind: CellString, Str: s} }

// Int builds an integer cell (counts, sizes).
func Int(v int64) Cell { return Cell{Kind: CellInt, Int: v} }

// RatioCell builds a paper-ratio cell (".47", '-' for NaN).
func RatioCell(v float64) Cell { return Cell{Kind: CellRatio, Float: v} }

// FixedCell builds a fixed-decimals cell ('-' for NaN).
func FixedCell(v float64, prec int) Cell { return Cell{Kind: CellFixed, Float: v, Prec: prec} }

// FloatCell builds a plain %.*f cell (NaN prints "NaN").
func FloatCell(v float64, prec int) Cell { return Cell{Kind: CellFloat, Float: v, Prec: prec} }

// Text renders the cell for the paper text layout.
func (c Cell) Text() string {
	switch c.Kind {
	case CellString:
		return c.Str
	case CellInt:
		return fmt.Sprintf("%d", c.Int)
	case CellRatio:
		return Ratio(c.Float)
	case CellFixed:
		return Fixed(c.Float, c.Prec)
	default:
		return fmt.Sprintf("%.*f", c.Prec, c.Float)
	}
}

// MarshalJSON encodes the raw value: strings as strings, numbers as
// numbers, NaN as null (JSON has no NaN; the text layout's '-').
func (c Cell) MarshalJSON() ([]byte, error) {
	switch c.Kind {
	case CellString:
		return json.Marshal(c.Str)
	case CellInt:
		return json.Marshal(c.Int)
	default:
		if math.IsNaN(c.Float) || math.IsInf(c.Float, 0) {
			return []byte("null"), nil
		}
		return json.Marshal(c.Float)
	}
}

// ResultKind discriminates Result nodes.
type ResultKind uint8

// Result kinds.
const (
	KindGroup ResultKind = iota
	KindTable
	KindScalar
)

// String names the kind for JSON output.
func (k ResultKind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindScalar:
		return "scalar"
	default:
		return "group"
	}
}

// Result is one node of a typed experiment result tree: a paper-layout
// table, a scalar with a unit, or a group of children.
// Drivers return Result trees; Text and JSON are the two renderers.
type Result struct {
	Kind  ResultKind
	Name  string // machine name (the registry experiment name at a root)
	Title string // human heading (tables)

	// KindTable.
	Header []string
	Rows   [][]Cell

	// KindScalar.
	Value Cell
	Unit  string

	// KindGroup.
	Children []*Result

	// Errs carries the run failures attributed to this result's
	// experiment: workloads whose capture, replay or sinks faulted, so
	// the numbers above (if any) are partial. Both renderers surface the
	// list; a nil/empty Errs changes neither output by a byte.
	Errs []RunError
}

// RunError is one workload failure in renderer-ready form: which
// workload cell failed, on which execution edge, and the flattened
// cause. It mirrors engine.CellError without importing the engine, so
// report stays a leaf package.
type RunError struct {
	Workload string `json:"workload"`
	Stage    string `json:"stage"`
	Message  string `json:"message"`
}

// NewDegradedResult builds the result of an experiment that could not
// finish: an empty group carrying only the failures that stopped it.
func NewDegradedResult(name string, errs []RunError) *Result {
	return &Result{Kind: KindGroup, Name: name, Errs: errs}
}

// NewTableResult starts a table node.
func NewTableResult(title string, header ...string) *Result {
	return &Result{Kind: KindTable, Title: title, Header: header}
}

// AddRow appends a typed row; it panics on column-count mismatch, like
// the text-layout Table it renders through.
func (r *Result) AddRow(cells ...Cell) {
	if len(cells) != len(r.Header) {
		panic(fmt.Sprintf("report: row has %d cells, header has %d", len(cells), len(r.Header)))
	}
	r.Rows = append(r.Rows, cells)
}

// NewScalar builds a scalar node with a unit ("" for dimensionless).
func NewScalar(name string, value Cell, unit string) *Result {
	return &Result{Kind: KindScalar, Name: name, Value: value, Unit: unit}
}

// NewGroup builds a group node over the given children.
func NewGroup(name string, children ...*Result) *Result {
	return &Result{Kind: KindGroup, Name: name, Children: children}
}

// Text renders a result tree in the paper text layout — the rendering
// the root golden tests pin byte for byte. A table node renders exactly
// like the legacy string-built Table; a group concatenates its children
// separated by blank lines.
func Text(r *Result) string {
	if r == nil {
		return ""
	}
	body := textBody(r)
	if len(r.Errs) == 0 {
		return body
	}
	var b strings.Builder
	b.WriteString(body)
	if body != "" && !strings.HasSuffix(body, "\n") {
		b.WriteByte('\n')
	}
	b.WriteString("errors:\n")
	for _, e := range r.Errs {
		fmt.Fprintf(&b, "  %s [%s]: %s\n", e.Workload, e.Stage, e.Message)
	}
	return b.String()
}

// textBody renders the node's regular content, without any error
// section.
func textBody(r *Result) string {
	switch r.Kind {
	case KindTable:
		tab := NewTable(r.Title, r.Header...)
		for _, row := range r.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = c.Text()
			}
			tab.AddRow(cells...)
		}
		return tab.String()
	case KindScalar:
		if r.Unit != "" {
			return fmt.Sprintf("%s = %s %s\n", r.Name, r.Value.Text(), r.Unit)
		}
		return fmt.Sprintf("%s = %s\n", r.Name, r.Value.Text())
	default:
		parts := make([]string, 0, len(r.Children))
		for _, c := range r.Children {
			parts = append(parts, Text(c))
		}
		return strings.Join(parts, "\n")
	}
}

// jsonResult is the JSON shape of a Result node.
type jsonResult struct {
	Kind     string     `json:"kind"`
	Name     string     `json:"name,omitempty"`
	Title    string     `json:"title,omitempty"`
	Header   []string   `json:"header,omitempty"`
	Rows     [][]Cell   `json:"rows,omitempty"`
	Value    *Cell      `json:"value,omitempty"`
	Unit     string     `json:"unit,omitempty"`
	Children []*Result  `json:"children,omitempty"`
	Errors   []RunError `json:"errors,omitempty"`
}

// MarshalJSON encodes the node with its kind spelled out and NaN values
// as null, so the output is plain JSON any consumer can parse.
func (r *Result) MarshalJSON() ([]byte, error) {
	j := jsonResult{
		Kind:     r.Kind.String(),
		Name:     r.Name,
		Title:    r.Title,
		Header:   r.Header,
		Rows:     r.Rows,
		Unit:     r.Unit,
		Children: r.Children,
		Errors:   r.Errs,
	}
	if r.Kind == KindScalar {
		v := r.Value
		j.Value = &v
	}
	return json.Marshal(j)
}

// JSON renders a result tree as indented, deterministic JSON — the
// machine-readable sibling of Text.
func JSON(r *Result) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// JSONArray renders a selection's results as the JSON array `memosim
// -json` prints: each result rendered by JSON, laid out by
// SpliceJSONArray — the same layout a fleet coordinator splices from
// its workers' documents.
func JSONArray(results []*Result) ([]byte, error) {
	docs := make([][]byte, len(results))
	for i, r := range results {
		doc, err := JSON(r)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	return SpliceJSONArray(docs), nil
}
