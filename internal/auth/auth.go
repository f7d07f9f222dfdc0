// Package auth provides the mobile-node authentication the paper assigns
// to the RSMC ("authenticate identity of MN", §4): keyed HMAC-SHA256
// tokens over the node's home address and a monotonically increasing
// nonce, with replay protection. It substitutes for whatever AAA
// infrastructure a real deployment would use; the RSMC code path it
// exercises is identical.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"

	"repro/internal/addr"
)

// TokenSize is the byte length of an authentication token.
const TokenSize = sha256.Size

// Errors returned by verification.
var (
	ErrBadToken = errors.New("auth: token mismatch")
	ErrReplay   = errors.New("auth: nonce replayed or stale")
	ErrNoKey    = errors.New("auth: empty key")
)

// Authenticator issues and verifies tokens under a shared key. In the
// simulation one Authenticator instance is shared between the mobile
// nodes of a domain and its RSMC, standing in for a provisioned shared
// secret.
//
// An Authenticator is not safe for concurrent use: it reuses one HMAC
// state and its scratch buffers for every MAC. Each scenario builds its
// own, and a scenario runs on one goroutine.
type Authenticator struct {
	key []byte
	// lastNonce remembers the highest accepted nonce per mobile node for
	// replay protection.
	lastNonce map[addr.IP]uint64

	// h is the keyed HMAC state, built on first use and Reset per MAC;
	// in and sum are its input and output scratch.
	h   hash.Hash
	in  [12]byte
	sum [TokenSize]byte
}

// New returns an authenticator for the given key.
func New(key []byte) (*Authenticator, error) {
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Authenticator{key: k, lastNonce: make(map[addr.IP]uint64)}, nil
}

// mac computes HMAC-SHA256(key, mn || nonce) into the scratch sum, which
// stays valid until the next call.
//
//mmlint:noalloc
func (a *Authenticator) mac(mn addr.IP, nonce uint64) *[TokenSize]byte {
	if a.h == nil {
		a.h = hmac.New(sha256.New, a.key) //mmlint:alloc-ok one HMAC state per Authenticator, reused for every MAC
	}
	a.h.Reset()
	binary.BigEndian.PutUint32(a.in[0:4], uint32(mn))
	binary.BigEndian.PutUint64(a.in[4:12], nonce)
	a.h.Write(a.in[:])
	a.h.Sum(a.sum[:0])
	return &a.sum
}

// Token issues a credential binding the mobile node's home address to a
// nonce. The caller must use strictly increasing nonces.
//
//mmlint:noalloc
func (a *Authenticator) Token(mn addr.IP, nonce uint64) [TokenSize]byte {
	return *a.mac(mn, nonce)
}

// Verify checks a token without consuming the nonce (stateless check).
//
//mmlint:noalloc
func (a *Authenticator) Verify(mn addr.IP, nonce uint64, token []byte) error {
	if !hmac.Equal(a.mac(mn, nonce)[:], token) {
		return ErrBadToken
	}
	return nil
}

// VerifyFresh checks the token and enforces nonce monotonicity per mobile
// node, consuming the nonce on success. Replayed or stale nonces fail even
// with a valid MAC.
func (a *Authenticator) VerifyFresh(mn addr.IP, nonce uint64, token []byte) error {
	if err := a.Verify(mn, nonce, token); err != nil {
		return err
	}
	if last, ok := a.lastNonce[mn]; ok && nonce <= last {
		return ErrReplay
	}
	a.lastNonce[mn] = nonce
	return nil
}

// Forget clears replay state for a node (deregistration).
func (a *Authenticator) Forget(mn addr.IP) { delete(a.lastNonce, mn) }
