package scidata

import (
	"bytes"
	"errors"
	"testing"

	"lwfs/internal/osd"
	"lwfs/internal/storage"
)

// header renders the header CreateDataset writes for a dataset of the given
// shape: one object per chunk of chunkRows rows.
func header(t Dtype, chunkRows int64, dims ...int64) []byte {
	d := &Dataset{Type: t, Dims: dims, chunkRows: chunkRows}
	for i := int64(0); i < (dims[0]+chunkRows-1)/chunkRows; i++ {
		d.objs = append(d.objs, storage.ObjRef{Node: 3, Port: 7, ID: osd.ObjectID(100 + i)})
	}
	return d.encodeHeader()
}

// The header decoder accepts what CreateDataset writes and nothing else: no
// shape it could not have made, no non-canonical spelling of one.
func TestDecodeHeaderRejectsNonCanonical(t *testing.T) {
	good := header(Float64, 6, 24, 32, 32)
	d, err := decodeHeader(good)
	if err != nil {
		t.Fatalf("rejected its own header: %v", err)
	}
	if d.chunkRows != 6 || len(d.objs) != 4 || len(d.Dims) != 3 {
		t.Fatalf("decoded %+v", d)
	}
	for _, bad := range []string{
		"scidata v1\ndtype uint8\nchunkrows 0\ndims 4\nchunk 3 7 100\n",
		"scidata v1\ndtype uint8\nchunkrows -2\ndims 4\nchunk 3 7 100\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 0\nchunk 3 7 100\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 4 -1\nchunk 3 7 100\nchunk 3 7 101\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\nchunk 3 7 102\n",
		"scidata v1\ndtype uint8\nchunkrows 1\ndims 1 9223372036854775807 2\nchunk 3 7 100\n",
		"scidata v1\ndtype uint8\nchunkrows +2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims  4\nchunk 3 7 100\nchunk 3 7 101\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\nchunk 3 7 101",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\n\n",
		"\nscidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\n",
		"scidata v1\ndtype complex\nchunkrows 2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\n",
		"scidata v1\ndtype uint8\nchunkrows 2\ndims\n",
	} {
		if _, err := decodeHeader([]byte(bad)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("decodeHeader(%q) = %v, want ErrBadHeader", bad, err)
		}
	}
}

// FuzzDecodeHeader: decoding never panics; whatever it accepts is a shape
// CreateDataset could have made, in the bytes encodeHeader writes for it.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(header(Float64, 6, 24, 32, 32))
	f.Add(header(Int32, 3, 10, 4, 4))
	f.Add(header(Uint8, 30, 100))
	f.Add([]byte("scidata v1\ndtype uint8\nchunkrows 0\ndims 4\nchunk 3 7 100\n"))
	f.Add([]byte("scidata v1\ndtype uint8\nchunkrows 2\ndims 0\nchunk 3 7 100\n"))
	f.Add([]byte("scidata v1\ndtype uint8\nchunkrows 2\ndims 4\nchunk 3 7 100\n"))
	f.Add([]byte("scidata v1\ndtype uint8\nchunkrows +2\ndims 4\nchunk 3 7 100\nchunk 3 7 101\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeHeader(data)
		if err != nil {
			return
		}
		if d.chunkRows <= 0 || int64(len(d.objs)) != (d.Dims[0]-1)/d.chunkRows+1 || d.layout().Unit <= 0 {
			t.Fatalf("accepted a shape CreateDataset never makes: dims %v, chunkrows %d, %d chunks", d.Dims, d.chunkRows, len(d.objs))
		}
		if enc := d.encodeHeader(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %q, which re-encodes as %q", data, enc)
		}
	})
}
