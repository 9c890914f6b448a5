package sm

import "fmt"

// Bytes2 reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes2() []byte {
	n := int(d.Uint32())
	if d.err != nil || n < 0 || n > d.Remaining() {
		if d.err == nil {
			d.err = fmt.Errorf("sm: bad bytes length %d", n)
		}
		return nil
	}
	b := d.take(n)
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
