package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Scalar trees travel between the construction tool and the
// visualization tool in the paper's pipeline (Table II's tv explicitly
// includes "the time cost for the visualization software to read the
// scalar tree"). This file gives SuperTree a compact binary format:
//
//	magic "SFST" | version u8 |
//	numSuper u32 | numItems u32 |
//	parents  []i32 (numSuper)  |
//	scalars  []f64 (numSuper)  |
//	nodeOf   []i32 (numItems)
//
// Member runs are reconstructed from nodeOf, so the encoding is
// O(numSuper + numItems) with no redundancy.

const (
	treeMagic   = "SFST"
	treeVersion = 1
)

// WriteTo serializes the super tree in the binary format above.
func (st *SuperTree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(treeMagic)); err != nil {
		return n, err
	}
	if err := bw.WriteByte(treeVersion); err != nil {
		return n, err
	}
	n++
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(st.Len())); err != nil {
		return n, err
	}
	if err := write(uint32(st.NumItems())); err != nil {
		return n, err
	}
	if err := write(st.Parent); err != nil {
		return n, err
	}
	if err := write(st.Scalar); err != nil {
		return n, err
	}
	if err := write(st.NodeOf); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadSuperTree deserializes a super tree written by WriteTo and
// validates it before returning.
func ReadSuperTree(r io.Reader) (*SuperTree, error) {
	avail := int64(-1)
	if lr, ok := r.(interface{ Len() int }); ok {
		avail = int64(lr.Len())
	}
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading tree magic: %w", err)
	}
	if string(magic) != treeMagic {
		return nil, fmt.Errorf("core: bad magic %q, want %q", magic, treeMagic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: reading tree version: %w", err)
	}
	if version != treeVersion {
		return nil, fmt.Errorf("core: unsupported tree version %d", version)
	}
	var numSuper, numItems uint32
	if err := binary.Read(br, binary.LittleEndian, &numSuper); err != nil {
		return nil, fmt.Errorf("core: reading tree header: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &numItems); err != nil {
		return nil, fmt.Errorf("core: reading tree header: %w", err)
	}
	const maxReasonable = 1 << 30
	if numSuper > maxReasonable || numItems > maxReasonable {
		return nil, fmt.Errorf("core: implausible tree sizes %d/%d", numSuper, numItems)
	}
	// Arrays are read in bounded chunks so a hostile header cannot
	// force a huge allocation before any payload bytes arrive. A reader
	// that reports its remaining length (the bytes.Reader of an
	// in-memory snapshot section does) proves the arrays present up
	// front, so they are allocated once at their full size.
	presize := avail >= int64(len(treeMagic))+1+8+12*int64(numSuper)+4*int64(numItems)
	st := &SuperTree{}
	var err2 error
	if st.Parent, err2 = readInt32s(br, int(numSuper), presize); err2 != nil {
		return nil, fmt.Errorf("core: reading parents: %w", err2)
	}
	if st.Scalar, err2 = readFloat64s(br, int(numSuper), presize); err2 != nil {
		return nil, fmt.Errorf("core: reading scalars: %w", err2)
	}
	if st.NodeOf, err2 = readInt32s(br, int(numItems), presize); err2 != nil {
		return nil, fmt.Errorf("core: reading item mapping: %w", err2)
	}
	for item, s := range st.NodeOf {
		if s < 0 || s >= int32(numSuper) {
			return nil, fmt.Errorf("core: item %d maps to invalid super node %d", item, s)
		}
	}
	// Rebuild the member runs from nodeOf by counting sort (ascending
	// item order within each run falls out).
	st.MemberStart = make([]int32, numSuper+1)
	st.MemberItems = make([]int32, numItems)
	groupBy(st.NodeOf, 0, st.MemberStart, st.MemberItems)
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("core: deserialized tree invalid: %w", err)
	}
	return st, nil
}

// readInt32s reads exactly n little-endian int32 values. Unless
// presize says the bytes are known to be present, the result grows as
// data actually arrives, so memory stays proportional to the bytes
// read rather than the declared count.
func readInt32s(r io.Reader, n int, presize bool) ([]int32, error) {
	out := make([]int32, 0, initialCap(n, 4, presize))
	err := readChunks(r, n, 4, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readFloat64s is readInt32s for float64 payloads.
func readFloat64s(r io.Reader, n int, presize bool) ([]float64, error) {
	out := make([]float64, 0, initialCap(n, 8, presize))
	err := readChunks(r, n, 8, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readChunk bounds the bytes one readChunks step reads and buffers.
const readChunk = 1 << 17

// initialCap is the starting capacity for n values of size bytes: all
// of them when presized, else one chunk's worth.
func initialCap(n, size int, presize bool) int {
	if presize {
		return n
	}
	return min(n, readChunk/size)
}

// readChunks reads n values of size bytes each through one reused
// buffer of at most readChunk bytes, handing every filled chunk to
// decode. A short read fails with io.ErrUnexpectedEOF, or io.EOF when
// no byte of a chunk arrived, as binary.Read does.
func readChunks(r io.Reader, n, size int, decode func([]byte)) error {
	buf := make([]byte, min(n, readChunk/size)*size)
	for n > 0 {
		k := min(n, len(buf)/size)
		if _, err := io.ReadFull(r, buf[:k*size]); err != nil {
			return err
		}
		decode(buf[:k*size])
		n -= k
	}
	return nil
}
