package proxy

import (
	"strings"
	"testing"
)

// splitDigest is the split-based parser scanDigest replaced, kept as its
// oracle: "Digest " cut off exactly, params split at commas outside quotes
// into a slice, keys lowercased by copy.
func splitDigest(v string) (c Credentials, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(v), "Digest ")
	if !ok {
		return c, false
	}
	var parts []string
	start, inQuote := 0, false
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, rest[start:i])
				start = i + 1
			}
		}
	}
	for _, part := range append(parts, rest[start:]) {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(part[:eq]))
		val := strings.Trim(strings.TrimSpace(part[eq+1:]), `"`)
		switch key {
		case "username":
			c.Username = val
		case "realm":
			c.Realm = val
		case "nonce":
			c.Nonce = val
		case "uri":
			c.URI = val
		case "response":
			c.Response = val
		}
	}
	return c, true
}

// authParamSeeds are credential and challenge lines as a phone and the
// benchmark's generator send them, and the shapes the scanner must read as
// the split parser did: quoted commas and equals signs, repeated and
// case-varied keys, keys that lower to ASCII only through Unicode,
// unquoted, empty and stray parameters.
var authParamSeeds = []string{
	`Digest username="user1", realm="test.dom", nonce="0d1f2e3c4b5a69788796a5b4c3d2e1f0", uri="sip:test.dom", response="670fd8c2df070c60b045671b8b24ff02", algorithm=MD5`,
	`Digest username="user42", realm="bench.gosip", nonce="5a0c9e1f3b7d2468ace013579bdf2468", uri="sip:bench.gosip", response="d41d8cd98f00b204e9800998ecf8427e", algorithm=MD5`,
	`Digest realm="bench.gosip", nonce="5a0c9e1f3b7d2468ace013579bdf2468", algorithm=MD5`,
	`Digest username="a,b", nonce="n=1", response="r"`,
	`Digest USERNAME="u", Nonce=n, response = "r" , realm=""`,
	`Digest username="first", username="last", nonce="n", response="r"`,
	`Digest urİ="sip:x", uſername="no", username="u", nonce="n", response="r"`,
	`Digest username=""u"", nonce="n"", response=r"`,
	`Digest ,,, =, username, nonce="n", response="r"`,
	`Digest username="open, nonce="n", response="r"`,
	`Digest 00000"000000000000", response=000000000`, // a part as long as what follows it
	"  Digest  \tusername=\"u\",\tnonce=\"n\",response=\"r\"  ",
	"digest username=\"u\", nonce=\"n\", response=\"r\"",
	"Digest\tusername=\"u\", nonce=\"n\", response=\"r\"",
	"Basic dXNlcjpwYXNz",
	"Digest",
	"",
}

func checkAuthParams(t *testing.T, v string) {
	t.Helper()
	got, ok := scanDigest(v)
	want, wantOK := splitDigest(v)
	if !wantOK {
		return // the scanner may accept more: any scheme case, any LWS
	}
	if !ok || got != want {
		t.Fatalf("scanDigest(%q) = %+v, %v; the split parser read %+v", v, got, ok, want)
	}
	c := want
	for _, f := range []string{c.Username, c.Realm, c.Nonce, c.URI, c.Response} {
		if strings.ContainsAny(f, `",`) {
			return
		}
	}
	rt, err := ParseCredentials(c.Format())
	if (err == nil) != (c.Username != "" && c.Nonce != "" && c.Response != "") {
		t.Fatalf("ParseCredentials(%q) error = %v", c.Format(), err)
	}
	if rt != c {
		t.Fatalf("ParseCredentials(%q) = %+v, want %+v", c.Format(), rt, c)
	}
}

func TestAuthParamsAgreeWithSplitParser(t *testing.T) {
	for _, s := range authParamSeeds {
		checkAuthParams(t, s)
	}
}

// FuzzAuthParams holds the in-place credential scanner to the split-based
// parser it replaces, and Credentials.Format to what the scanner reads.
func FuzzAuthParams(f *testing.F) {
	for _, s := range authParamSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkAuthParams(t, s) })
}
