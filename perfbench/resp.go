package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The benchmark's own RESP client: just enough of RESP2 to send GET, SET,
// SCAN and INFO and to read their replies without allocating per reply.

// appendCmd appends one RESP command array to dst.
func appendCmd(dst []byte, args ...[]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

var (
	cmdGET  = []byte("GET")
	cmdSET  = []byte("SET")
	cmdSCAN = []byte("SCAN")
	cmdINFO = []byte("INFO")
)

// errReply is a RESP error reply ("-ERR ...").
type errReply string

func (e errReply) Error() string { return "server error: " + string(e) }

// replyReader parses RESP replies from a connection.
type replyReader struct {
	br *bufio.Reader
}

// line reads one CRLF-terminated header line, without the CRLF. The slice
// is valid until the next read.
func (r *replyReader) line() ([]byte, error) {
	b, err := r.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(b) < 3 || b[len(b)-2] != '\r' {
		return nil, fmt.Errorf("malformed reply line %q", b)
	}
	return b[:len(b)-2], nil
}

// header reads a reply header and returns its type byte and the rest.
func (r *replyReader) header() (byte, []byte, error) {
	b, err := r.line()
	if err != nil {
		return 0, nil, err
	}
	if b[0] == '-' {
		return 0, nil, errReply(b[1:])
	}
	return b[0], b[1:], nil
}

// bulk reads a bulk string into dst[:0]; nil with ok=false is a null bulk.
func (r *replyReader) bulk(dst []byte) ([]byte, bool, error) {
	t, rest, err := r.header()
	if err != nil {
		return nil, false, err
	}
	if t != '$' {
		return nil, false, fmt.Errorf("want bulk reply, got %q", t)
	}
	return r.bulkBody(dst, rest)
}

func (r *replyReader) bulkBody(dst, lenField []byte) ([]byte, bool, error) {
	n, err := strconv.Atoi(string(lenField))
	if err != nil {
		return nil, false, fmt.Errorf("bad bulk length %q", lenField)
	}
	if n < 0 {
		return nil, false, nil
	}
	if cap(dst) < n+2 {
		dst = make([]byte, n+2)
	}
	dst = dst[:n+2]
	if _, err := io.ReadFull(r.br, dst); err != nil {
		return nil, false, err
	}
	if dst[n] != '\r' || dst[n+1] != '\n' {
		return nil, false, errors.New("bulk reply not CRLF-terminated")
	}
	return dst[:n], true, nil
}

// simple reads a status reply and checks it equals want.
func (r *replyReader) simple(want string) error {
	t, rest, err := r.header()
	if err != nil {
		return err
	}
	if t != '+' || string(rest) != want {
		return fmt.Errorf("want +%s, got %c%s", want, t, rest)
	}
	return nil
}

// arrayLen reads an array header.
func (r *replyReader) arrayLen() (int, error) {
	t, rest, err := r.header()
	if err != nil {
		return 0, err
	}
	if t != '*' {
		return 0, fmt.Errorf("want array reply, got %q", t)
	}
	return strconv.Atoi(string(rest))
}

// Values encode the key they belong to and the key's write sequence, so a
// read proves which write it returned:
//
//	k=<16-byte key>;s=<10-digit sequence>;<filler to the value size>
const valueHeader = 2 + 16 + 3 + 10 + 1

// valueCodec builds and checks values of one size with seed-derived filler.
type valueCodec struct {
	size   int
	filler []byte
}

func newValueCodec(size int, seed int64) *valueCodec {
	f := make([]byte, size)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range f {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f[i] = 'a' + byte(x%26)
	}
	return &valueCodec{size: size, filler: f}
}

// encode appends the value for (key, seq) to dst[:0].
func (c *valueCodec) encode(dst, key []byte, seq uint32) []byte {
	dst = append(dst[:0], "k="...)
	dst = append(dst, key...)
	dst = append(dst, ";s="...)
	var digits [10]byte
	for i, s := 9, seq; i >= 0; i-- {
		digits[i] = byte('0' + s%10)
		s /= 10
	}
	dst = append(dst, digits[:]...)
	dst = append(dst, ';')
	return append(dst, c.filler[valueHeader:]...)
}

// decode returns the key and sequence a value claims, checking the filler.
func (c *valueCodec) decode(v []byte) (key []byte, seq uint32, ok bool) {
	if len(v) != c.size || !bytes.HasPrefix(v, []byte("k=")) || string(v[18:21]) != ";s=" || v[31] != ';' {
		return nil, 0, false
	}
	for _, d := range v[21:31] {
		if d < '0' || d > '9' {
			return nil, 0, false
		}
		seq = seq*10 + uint32(d-'0')
	}
	if !bytes.Equal(v[valueHeader:], c.filler[valueHeader:]) {
		return nil, 0, false
	}
	return v[2:18], seq, true
}

// keyIndex parses the decimal index out of a workload key ("user000000000042").
func keyIndex(key []byte) (int, bool) {
	if len(key) != 16 || string(key[:4]) != "user" {
		return 0, false
	}
	n := 0
	for _, d := range key[4:] {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}
