package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

var mn = addr.MustParse("192.168.1.10")

func newAuth(t *testing.T) *Authenticator {
	t.Helper()
	a, err := New([]byte("domain-shared-secret"))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tokenSlice issues a token as the []byte the verifiers take.
func tokenSlice(a *Authenticator, mn addr.IP, nonce uint64) []byte {
	tok := a.Token(mn, nonce)
	return tok[:]
}

func TestTokenRoundTrip(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 1)
	if len(tok) != TokenSize {
		t.Fatalf("token size %d", len(tok))
	}
	if err := a.Verify(mn, 1, tok[:]); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 5)
	// Wrong nonce.
	if err := a.Verify(mn, 6, tok[:]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong nonce: %v", err)
	}
	// Wrong node.
	if err := a.Verify(addr.MustParse("192.168.1.11"), 5, tok[:]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong node: %v", err)
	}
	// Flipped bit.
	bad := tok
	bad[0] ^= 1
	if err := a.Verify(mn, 5, bad[:]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("tampered token: %v", err)
	}
	// Truncated.
	if err := a.Verify(mn, 5, tok[:10]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("truncated token: %v", err)
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a1, err := New([]byte("key-one"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New([]byte("key-two"))
	if err != nil {
		t.Fatal(err)
	}
	tok := a1.Token(mn, 1)
	if err := a2.Verify(mn, 1, tok[:]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-key verify: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoKey) {
		t.Fatalf("New(nil): %v", err)
	}
	if _, err := New([]byte{}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("New(empty): %v", err)
	}
}

func TestKeyCopiedAtConstruction(t *testing.T) {
	key := []byte("mutable-key-material")
	a, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	tok := a.Token(mn, 1)
	key[0] ^= 0xFF // caller mutates their buffer
	if err := a.Verify(mn, 1, tok[:]); err != nil {
		t.Fatal("authenticator shared caller's key buffer")
	}
}

func TestVerifyFreshReplayProtection(t *testing.T) {
	a := newAuth(t)
	tok5 := a.Token(mn, 5)
	if err := a.VerifyFresh(mn, 5, tok5[:]); err != nil {
		t.Fatal(err)
	}
	// Exact replay.
	if err := a.VerifyFresh(mn, 5, tok5[:]); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
	// Stale nonce.
	tok3 := a.Token(mn, 3)
	if err := a.VerifyFresh(mn, 3, tok3[:]); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale: %v", err)
	}
	// Fresh nonce proceeds.
	tok6 := a.Token(mn, 6)
	if err := a.VerifyFresh(mn, 6, tok6[:]); err != nil {
		t.Fatal(err)
	}
	// Bad token does not consume the nonce.
	bad := make([]byte, TokenSize)
	if err := a.VerifyFresh(mn, 7, bad); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad token: %v", err)
	}
	tok7 := a.Token(mn, 7)
	if err := a.VerifyFresh(mn, 7, tok7[:]); err != nil {
		t.Fatalf("nonce consumed by failed verify: %v", err)
	}
}

func TestForgetResetsReplayState(t *testing.T) {
	a := newAuth(t)
	if err := a.VerifyFresh(mn, 10, tokenSlice(a, mn, 10)); err != nil {
		t.Fatal(err)
	}
	a.Forget(mn)
	if err := a.VerifyFresh(mn, 1, tokenSlice(a, mn, 1)); err != nil {
		t.Fatalf("after Forget: %v", err)
	}
}

func TestPerNodeNonceSpaces(t *testing.T) {
	a := newAuth(t)
	other := addr.MustParse("192.168.1.99")
	if err := a.VerifyFresh(mn, 100, tokenSlice(a, mn, 100)); err != nil {
		t.Fatal(err)
	}
	// A different node may still use a low nonce.
	if err := a.VerifyFresh(other, 1, tokenSlice(a, other, 1)); err != nil {
		t.Fatalf("per-node nonce space shared: %v", err)
	}
}

// Property: only the exact (mn, nonce) pair verifies.
func TestTokenBindingProperty(t *testing.T) {
	a := newAuth(t)
	prop := func(ip1, ip2 uint32, n1, n2 uint64) bool {
		err := a.Verify(addr.IP(ip2), n2, tokenSlice(a, addr.IP(ip1), n1))
		if ip1 == ip2 && n1 == n2 {
			return err == nil
		}
		return errors.Is(err, ErrBadToken)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// freshMAC is the reference token: a new HMAC state per call.
func freshMAC(key []byte, mn addr.IP, nonce uint64) []byte {
	h := hmac.New(sha256.New, key)
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(mn))
	binary.BigEndian.PutUint64(buf[4:12], nonce)
	h.Write(buf[:])
	return h.Sum(nil)
}

// TestReusedStateMatchesFreshMAC interleaves Token, Verify and
// VerifyFresh over many nodes and nonces on two authenticators: every
// token must equal a fresh-state MAC, so reusing the state leaks nothing
// between calls or between instances.
func TestReusedStateMatchesFreshMAC(t *testing.T) {
	keys := [][]byte{[]byte("domain-0-secret"), []byte("domain-1-secret")}
	auths := make([]*Authenticator, len(keys))
	for i, k := range keys {
		a, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		auths[i] = a
	}
	rng := rand.New(rand.NewSource(14))
	next := map[addr.IP]uint64{}
	for i := 0; i < 5000; i++ {
		ai := rng.Intn(len(auths))
		a, key := auths[ai], keys[ai]
		node := addr.IP(0x0a000000 + uint32(rng.Intn(50)))
		nonce := rng.Uint64()
		switch rng.Intn(3) {
		case 0:
			tok := a.Token(node, nonce)
			if want := freshMAC(key, node, nonce); !bytes.Equal(tok[:], want) {
				t.Fatalf("step %d: Token(%v, %d) differs from a fresh MAC", i, node, nonce)
			}
		case 1:
			if err := a.Verify(node, nonce, freshMAC(key, node, nonce)); err != nil {
				t.Fatalf("step %d: Verify rejected a fresh MAC: %v", i, err)
			}
			other := keys[1-ai]
			if err := a.Verify(node, nonce, freshMAC(other, node, nonce)); !errors.Is(err, ErrBadToken) {
				t.Fatalf("step %d: Verify accepted the other key's MAC: %v", i, err)
			}
		case 2:
			next[node]++
			n := next[node] // per-node monotone; shared across both instances
			if err := a.VerifyFresh(node, n, freshMAC(key, node, n)); err != nil {
				t.Fatalf("step %d: VerifyFresh rejected a fresh MAC: %v", i, err)
			}
		}
	}
}

func TestTokenAndVerifyAllocateNothing(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 1) // builds the HMAC state
	if avg := testing.AllocsPerRun(1000, func() { tok = a.Token(mn, 1) }); avg != 0 {
		t.Fatalf("Token allocates %.1f per call", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if a.Verify(mn, 1, tok[:]) != nil {
			panic("valid token rejected")
		}
	}); avg != 0 {
		t.Fatalf("Verify allocates %.1f per call", avg)
	}
}
