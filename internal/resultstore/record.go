package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
)

// An entry record is the one serialized form of an Entry: the bytes of
// its disk file and of a GET /v1/result/{key} body alike, so a disk hit
// is served as the file it read. It is one line of JSON, fields in this
// order:
//
//	{"key":"<key>","digest":"<64 hex>","result":<result JSON>}
//
// A reader checks every byte without a JSON parser: the frame and the
// key must match exactly, and the result bytes must hash to the digest.
// A flip anywhere (key, digest, result or frame) fails the check.
const (
	keyField    = `{"key":"`
	digestField = `","digest":"`
	resultField = `","result":`
	recordEnd   = "}\n"
	digestLen   = 2 * sha256.Size
)

// AppendRecord appends the entry's record to b. The result bytes are
// copied as they are; the key (ValidKey) and the hex digest need no
// escaping.
func (e *Entry) AppendRecord(b []byte) []byte {
	result := e.ResultJSON()
	b = slices.Grow(b, len(keyField)+len(e.Key)+len(digestField)+len(e.Digest)+len(resultField)+len(result)+len(recordEnd))
	b = append(b, keyField...)
	b = append(b, e.Key...)
	b = append(b, digestField...)
	b = append(b, e.Digest...)
	b = append(b, resultField...)
	b = append(b, result...)
	return append(b, recordEnd...)
}

// splitRecord checks raw's frame and key binding and returns its digest
// and result bytes (sharing raw's memory). It does not hash.
func splitRecord(raw []byte, key string) (digest, result []byte, ok bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(keyField))
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(key))
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(digestField))
	}
	if !ok || len(rest) < digestLen {
		return nil, nil, false
	}
	digest, rest = rest[:digestLen], rest[digestLen:]
	if rest, ok = bytes.CutPrefix(rest, []byte(resultField)); !ok {
		return nil, nil, false
	}
	result, ok = bytes.CutSuffix(rest, []byte(recordEnd))
	return digest, result, ok && len(result) > 0
}

// parseRecord verifies raw as the record of key: frame, key binding,
// and one SHA-256 over the result bytes against the recorded digest.
// The entry it returns carries raw's own result bytes.
func parseRecord(raw []byte, key string) (*Entry, bool) {
	digest, result, ok := splitRecord(raw, key)
	if !ok {
		return nil, false
	}
	sum := sha256.Sum256(result)
	var hexSum [digestLen]byte
	hex.Encode(hexSum[:], sum[:])
	if !bytes.Equal(hexSum[:], digest) {
		return nil, false
	}
	return &Entry{Key: key, Digest: string(digest), raw: result}, true
}
