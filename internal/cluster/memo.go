package cluster

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"

	"hwgc/internal/frontdoor"
	"hwgc/internal/server"
)

// memoMaxBody is the largest /v1/collect body the memo reads whole, and the
// largest canonical form it holds. A collect of a named benchmark is a few
// hundred bytes; a larger body (an inline plan may be up to
// frontdoor.MaxBodyBytes) is decoded as a stream every time and never held.
const memoMaxBody = 4 << 10

// bodyMemo is the fast path of the fleet's POST /v1/collect front door. It
// maps the SHA-256 of a raw request body to the content key and canonical
// bytes that body decoded to, so a byte-identical repeat skips the strict
// JSON decode, the canonicalization and the key hash; an alias spelling
// that then misses the edge cache still has the canonical bytes to forward.
// Only a body that decoded is memoized: a failing body is decoded afresh
// every time and gets the same 400. The memo is a server.Cache (canonical
// bytes as the body, the content key as the origin) of at most
// CacheEntries bodies of at most memoMaxBody bytes each, and exists only
// with the edge cache.
type bodyMemo struct{ c *server.Cache }

func newBodyMemo(entries int) *bodyMemo {
	return &bodyMemo{c: server.NewCache(entries, int64(entries)*memoMaxBody)}
}

// readCollect returns the content key and canonical bytes of a POST
// /v1/collect body. A body of declared length at most memoMaxBody goes
// through the memo; any other body, and every body with the memo off
// (m nil), is decoded as a stream under the frontdoor.MaxBodyBytes limit, so
// an oversized one gets the same 400. A body whose read fails is decoded from
// the bytes read and then the same error, as the stream decode sees them.
func (m *bodyMemo) readCollect(w http.ResponseWriter, r *http.Request) (key string, canon []byte, err error) {
	r.Body = http.MaxBytesReader(w, r.Body, frontdoor.MaxBodyBytes)
	if m == nil || r.ContentLength < 0 || r.ContentLength > memoMaxBody {
		return decodeCollect(r.Body)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return decodeCollect(io.MultiReader(bytes.NewReader(raw), errReader{err}))
	}
	return m.lookup(raw)
}

// lookup returns the memoized key and canonical bytes of raw when this
// exact body was accepted before, and otherwise decodeCollect's result,
// memoized when it succeeds with a canonical form of at most memoMaxBody.
func (m *bodyMemo) lookup(raw []byte) (key string, canon []byte, err error) {
	sum := sha256.Sum256(raw)
	if canon, key, ok := m.c.GetOrigin(string(sum[:])); ok {
		return key, canon, nil
	}
	key, canon, err = decodeCollect(bytes.NewReader(raw))
	if err == nil && len(canon) <= memoMaxBody {
		m.c.PutOrigin(string(sum[:]), key, canon)
	}
	return key, canon, err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
