package shop

import (
	"context"
	"encoding/json"
	"fmt"

	"pricesheriff/internal/transport"
)

// Server exposes a Mall over the transport fabric: the "Internet" the
// proxy clients fetch product pages from.
type Server struct {
	Mall *Mall
	rpc  *transport.Server
}

// ProductInfo is a catalog entry as exposed to clients.
type ProductInfo struct {
	SKU      string `json:"sku"`
	Name     string `json:"name"`
	Category string `json:"category"`
	URL      string `json:"url"`
}

// NewServer wraps the mall in an RPC server; call Serve to start.
func NewServer(m *Mall, lis transport.Listener) *Server {
	s := &Server{Mall: m, rpc: transport.NewServer(lis)}
	s.rpc.SetProc("shop")
	transport.HandleTyped(s.rpc, "shop.fetch", func(_ context.Context, req *FetchRequest) (any, error) {
		return m.Fetch(req), nil
	})
	s.rpc.Handle("shop.domains", func(json.RawMessage) (any, error) {
		return m.Domains(), nil
	})
	s.rpc.Handle("shop.catalog", func(raw json.RawMessage) (any, error) {
		var domain string
		if err := json.Unmarshal(raw, &domain); err != nil {
			return nil, err
		}
		sh, ok := m.Shop(domain)
		if !ok {
			return nil, fmt.Errorf("shop: unknown domain %q", domain)
		}
		var out []ProductInfo
		for _, p := range sh.Products() {
			out = append(out, ProductInfo{
				SKU: p.SKU, Name: p.Name, Category: p.Category, URL: sh.ProductURL(p.SKU),
			})
		}
		return out, nil
	})
	return s
}

// Addr returns the dialable address.
func (s *Server) Addr() string { return s.rpc.Addr() }

// Serve blocks accepting connections.
func (s *Server) Serve() error { return s.rpc.Serve() }

// Close stops the server.
func (s *Server) Close() error { return s.rpc.Close() }

// Fetcher downloads product pages. Proxy clients depend on this interface
// so tests can fetch in-process while deployments go over the network. The
// context bounds the fetch end to end: implementations must return
// promptly once it is canceled (the measurement layer cancels vantage
// fetches whose check died).
type Fetcher interface {
	Fetch(ctx context.Context, req *FetchRequest) (*FetchResponse, error)
}

// NetFetcher fetches pages from a mall Server over the fabric.
type NetFetcher struct {
	pool *transport.Pool
}

// DialFetcher connects a pooled fetcher to a mall server.
func DialFetcher(netw transport.Network, addr string, poolSize int) (*NetFetcher, error) {
	pool, err := transport.NewPool(netw, addr, poolSize)
	if err != nil {
		return nil, err
	}
	return &NetFetcher{pool: pool}, nil
}

// Fetch implements Fetcher; the context rides the RPC all the way to the
// mall server.
func (f *NetFetcher) Fetch(ctx context.Context, req *FetchRequest) (*FetchResponse, error) {
	var resp FetchResponse
	if err := f.pool.CallCtx(ctx, "shop.fetch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Domains lists the retailer domains served by the mall.
func (f *NetFetcher) Domains() ([]string, error) {
	var out []string
	err := f.pool.CallCtx(context.TODO(), "shop.domains", nil, &out)
	return out, err
}

// Catalog lists a retailer's products.
func (f *NetFetcher) Catalog(domain string) ([]ProductInfo, error) {
	var out []ProductInfo
	err := f.pool.CallCtx(context.TODO(), "shop.catalog", domain, &out)
	return out, err
}

// Close releases the pool.
func (f *NetFetcher) Close() error { return f.pool.Close() }

// LocalFetcher fetches directly from an in-process Mall.
type LocalFetcher struct {
	Mall *Mall
}

// Fetch implements Fetcher. The in-process mall answers instantly, so
// only a context that is already dead aborts the fetch.
func (f LocalFetcher) Fetch(ctx context.Context, req *FetchRequest) (*FetchResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.Mall.Fetch(req), nil
}
