package shop

import "pricesheriff/internal/transport"

// Hand-written binary codecs for shop.fetch: every vantage point of every
// check downloads its page copy through this pair, so the response — one
// product page — is the most frequent large frame in the system. Each
// codec mirrors its struct's JSON shape (crosscheck_test.go in the
// transport package holds them to it).

// Wire tags of this package (global registry; see transport.RegisterWire).
const (
	wireTagFetchRequest  = 18
	wireTagFetchResponse = 19
)

func init() {
	transport.RegisterWire(wireTagFetchRequest, "shop.fetch_request", func() transport.WireMessage { return new(FetchRequest) })
	transport.RegisterWire(wireTagFetchResponse, "shop.fetch_response", func() transport.WireMessage { return new(FetchResponse) })
}

// appendCookies appends a cookie jar (key: cookie domain) as a count and
// that many key/value pairs.
func appendCookies(b []byte, m map[string]string) []byte {
	b = transport.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = transport.AppendString(b, k)
		b = transport.AppendString(b, v)
	}
	return b
}

// decodeCookies reads what appendCookies wrote; an empty jar decodes to
// nil, as an omitted JSON field would.
func decodeCookies(d *transport.WireDec) map[string]string {
	n := d.ElemLen(2) // a pair is ≥ 2 bytes (two length prefixes)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.String()
	}
	return m
}

// WireTag implements transport.WireMessage.
func (r *FetchRequest) WireTag() uint8 { return wireTagFetchRequest }

// AppendWire implements transport.WireMessage.
func (r *FetchRequest) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.URL)
	b = transport.AppendString(b, r.IP)
	b = appendCookies(b, r.Cookies)
	b = transport.AppendString(b, r.UserAgent)
	b = transport.AppendFloat(b, r.Day)
	b = transport.AppendUvarint(b, r.Nonce)
	return transport.AppendBool(b, r.LoggedIn)
}

// DecodeWire implements transport.WireMessage.
func (r *FetchRequest) DecodeWire(d *transport.WireDec) error {
	r.URL = d.String()
	r.IP = d.String()
	r.Cookies = decodeCookies(d)
	r.UserAgent = d.String()
	r.Day = d.Float()
	r.Nonce = d.Uvarint()
	r.LoggedIn = d.Bool()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *FetchResponse) WireTag() uint8 { return wireTagFetchResponse }

// AppendWire implements transport.WireMessage.
func (r *FetchResponse) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(r.Status))
	b = transport.AppendString(b, r.HTML)
	return appendCookies(b, r.SetCookies)
}

// DecodeWire implements transport.WireMessage.
func (r *FetchResponse) DecodeWire(d *transport.WireDec) error {
	r.Status = int(d.Varint())
	r.HTML = d.String()
	r.SetCookies = decodeCookies(d)
	return d.Err()
}
