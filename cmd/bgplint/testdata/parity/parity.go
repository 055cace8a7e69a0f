// Package parity holds one known hotpathalloc finding and one known
// eofcompare finding, so a test can check that both bgplint modes
// report exactly these.
package parity

import "io"

// Grow is an allocation-audited hot path that allocates.
//
//bgp:hotpath
func Grow(n int) []byte {
	return make([]byte, n)
}

// AtEOF compares with io.EOF by ==, missing wrapped EOFs.
func AtEOF(err error) bool {
	return err == io.EOF
}
