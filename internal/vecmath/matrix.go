package vecmath

import "fmt"

// Matrix is a dense row-major matrix holding one embedding per row. The
// embedding table E of the paper (one row per node) is stored this way so a
// diffusion sweep walks memory linearly.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns a mutable view of row i. The slice aliases the matrix storage;
// callers that need an owned copy must Clone it.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("vecmath: SetRow width %d != %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src, which must share m's shape.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("vecmath: CopyFrom shape %dx%d != %dx%d", src.rows, src.cols, m.rows, m.cols))
	}
	copy(m.data, src.data)
}

// ZeroAll resets every element to 0.
func (m *Matrix) ZeroAll() { Zero(m.data) }

// MaxAbsDiffMatrix returns the largest elementwise absolute difference
// between a and b, used as the convergence residual for matrix iterations.
func MaxAbsDiffMatrix(a, b *Matrix) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("vecmath: MaxAbsDiffMatrix shape %dx%d != %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return MaxAbsDiff(a.data, b.data)
}

// Data exposes the backing slice for tests and serialization. The slice
// aliases matrix storage.
func (m *Matrix) Data() []float64 { return m.data }

// Column returns an owned copy of column j. Row-major storage means a
// column is strided; callers needing repeated column access should keep the
// copy rather than re-extracting.
func (m *Matrix) Column(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("vecmath: column %d out of %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetColumn copies v into column j. v must have Rows() length.
func (m *Matrix) SetColumn(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("vecmath: SetColumn height %d != %d", len(v), m.rows))
	}
	for i, x := range v {
		m.data[i*m.cols+j] = x
	}
}

// CompactColumns keeps the given columns of m in place: afterwards m is
// rows×len(keep) over its own storage and its column k holds what column
// keep[k] held. keep must be strictly increasing. Each value moves to an
// index no higher than its old one (i·len(keep)+k ≤ i·cols+keep[k]), so a
// front-to-back pass never reads a value it has already overwritten, even
// where a row's new span overlaps an earlier row's old one.
func (m *Matrix) CompactColumns(keep []int) {
	for k, j := range keep {
		if j < k || j >= m.cols || (k > 0 && j <= keep[k-1]) {
			panic(fmt.Sprintf("vecmath: CompactColumns keep %v not increasing within %d columns", keep, m.cols))
		}
	}
	w := len(keep)
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := m.data[i*w : (i+1)*w]
		for k, j := range keep {
			dst[k] = src[j]
		}
	}
	m.cols = w
	m.data = m.data[:m.rows*w]
}

// Narrow shrinks m to rows×cols over its own storage without moving any
// value, so its contents afterwards are unspecified. It is for scratch
// buffers whose every row is written before it is read.
func (m *Matrix) Narrow(cols int) {
	if cols < 0 || cols > m.cols {
		panic(fmt.Sprintf("vecmath: Narrow to %d columns from %d", cols, m.cols))
	}
	m.cols = cols
	m.data = m.data[:m.rows*cols]
}
