package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pricesheriff/internal/transport"
)

// Server exposes a DB over the transport fabric — the dedicated Database
// server node of the paper's final architecture.
type Server struct {
	DB  *DB
	rpc *transport.Server

	// Metrics instruments the RPC surface; set it before Serve (nil
	// disables). Handlers read it per call, so it may also be attached
	// to an already-constructed server as long as no request ran yet.
	Metrics *Metrics
}

// handle registers an RPC handler wrapped with per-method metrics; rows
// returned by selects are counted from the *rowList result. A request whose
// propagated deadline already expired is not executed at all.
func (s *Server) handle(method string, h func(json.RawMessage) (any, error)) {
	s.rpc.HandleCtx("store."+method, func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := h(raw)
		rows := 0
		if rs, ok := out.(*rowList); ok {
			rows = len(*rs)
		}
		s.Metrics.observe(method, t0, rows, err)
		return out, err
	})
}

// handleWired registers a typed handler (binary fast path + JSON
// fallback) wrapped with the same per-method metrics as handle.
func handleWired[Req any](s *Server, method string, h func(req *Req) (any, error)) {
	transport.HandleTyped(s.rpc, "store."+method, func(ctx context.Context, req *Req) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := h(req)
		s.Metrics.observe(method, t0, 0, err)
		return out, err
	})
}

// Request/response shapes of the wire protocol.
type (
	insertReq struct {
		Table string `json:"table"`
		Row   Row    `json:"row"`
	}
	insertResp struct {
		ID int64 `json:"id"`
	}
	insertBatchReq struct {
		Table string `json:"table"`
		Rows  []Row  `json:"rows"`
	}
	insertBatchResp struct {
		IDs []int64 `json:"ids"`
	}
	getReq struct {
		Table string `json:"table"`
		ID    int64  `json:"id"`
	}
	updateReq struct {
		Table   string `json:"table"`
		ID      int64  `json:"id"`
		Updates Row    `json:"updates"`
	}
	deleteReq struct {
		Table string `json:"table"`
		ID    int64  `json:"id"`
	}
	callReq struct {
		Proc string          `json:"proc"`
		Args json.RawMessage `json:"args,omitempty"`
	}
	deleteBatchReq struct {
		Table string  `json:"table"`
		IDs   []int64 `json:"ids"`
	}
	deleteBatchResp struct {
		Removed int `json:"removed"`
	}
	countsResp struct {
		Tables map[string]int `json:"tables"`
	}
	importRowsReq struct {
		Table string          `json:"table"`
		Rows  json.RawMessage `json:"rows"`
	}
	importRowsResp struct {
		Stored int `json:"stored"`
	}
)

// NewServer wraps db in an RPC server on the listener. Call Serve to start.
func NewServer(db *DB, lis transport.Listener) *Server {
	s := &Server{DB: db, rpc: transport.NewServer(lis)}
	s.rpc.SetProc("store")
	s.handle("create", func(raw json.RawMessage) (any, error) {
		var spec TableSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		return nil, db.CreateTable(spec)
	})
	// The rows of an insert or insert_batch request were decoded for this
	// call and belong to nobody else, and both decoders (decodeRow,
	// encoding/json) produce every number as a float64: they are normalized
	// rows already, and are stored as decoded instead of being copied again.
	handleWired(s, "insert", func(req *insertReq) (any, error) {
		id, err := db.insert(req.Table, req.Row)
		if err != nil {
			return nil, err
		}
		return &insertResp{ID: id}, nil
	})
	handleWired(s, "insert_batch", func(req *insertBatchReq) (any, error) {
		ids, err := db.insertBatch(req.Table, req.Rows)
		if err != nil {
			return nil, err
		}
		return &insertBatchResp{IDs: ids}, nil
	})
	s.handle("get", func(raw json.RawMessage) (any, error) {
		var req getReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return db.Get(req.Table, req.ID)
	})
	s.handle("update", func(raw json.RawMessage) (any, error) {
		var req updateReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return nil, db.Update(req.Table, req.ID, req.Updates)
	})
	s.handle("delete", func(raw json.RawMessage) (any, error) {
		var req deleteReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return nil, db.Delete(req.Table, req.ID)
	})
	s.handle("select", func(raw json.RawMessage) (any, error) {
		var q Query
		if err := json.Unmarshal(raw, &q); err != nil {
			return nil, err
		}
		rows, err := db.Select(q)
		if err != nil {
			return nil, err
		}
		if rows == nil {
			rows = []Row{}
		}
		return (*rowList)(&rows), nil
	})
	s.handle("call", func(raw json.RawMessage) (any, error) {
		var req callReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return db.CallProc(req.Proc, req.Args)
	})
	s.handle("delete_batch", func(raw json.RawMessage) (any, error) {
		var req deleteBatchReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		n, err := db.DeleteBatch(req.Table, req.IDs)
		if err != nil {
			return nil, err
		}
		return &deleteBatchResp{Removed: n}, nil
	})
	s.handle("counts", func(json.RawMessage) (any, error) {
		return &countsResp{Tables: db.Counts()}, nil
	})
	s.handle("import_rows", func(raw json.RawMessage) (any, error) {
		var req importRowsReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		var rows []Row
		if err := json.Unmarshal(req.Rows, &rows); err != nil {
			return nil, err
		}
		n, err := db.ImportRows(req.Table, rows)
		if err != nil {
			return nil, err
		}
		return &importRowsResp{Stored: n}, nil
	})
	s.handle("export", func(json.RawMessage) (any, error) {
		var buf bytes.Buffer
		if err := db.Export(&buf); err != nil {
			return nil, err
		}
		return json.RawMessage(buf.Bytes()), nil
	})
	return s
}

// Addr returns the dialable address.
func (s *Server) Addr() string { return s.rpc.Addr() }

// Serve blocks accepting connections; run it in a goroutine.
func (s *Server) Serve() error { return s.rpc.Serve() }

// Close stops the server.
func (s *Server) Close() error { return s.rpc.Close() }

// Client is a pooled client of a store Server — the "connection threads
// kept in memory" optimization of Sect. 10.2.1.
type Client struct {
	pool *transport.Pool
}

// Dial connects poolSize connections to the database server.
func Dial(netw transport.Network, addr string, poolSize int) (*Client, error) {
	pool, err := transport.NewPool(netw, addr, poolSize)
	if err != nil {
		return nil, err
	}
	return &Client{pool: pool}, nil
}

// CreateTableCtx mirrors DB.CreateTable, bounded by a context.
func (c *Client) CreateTableCtx(ctx context.Context, spec TableSpec) error {
	return c.pool.CallCtx(ctx, "store.create", spec, nil)
}

// InsertCtx mirrors DB.Insert, bounded by a context.
func (c *Client) InsertCtx(ctx context.Context, table string, row Row) (int64, error) {
	var resp insertResp
	if err := c.pool.CallCtx(ctx, "store.insert", &insertReq{Table: table, Row: row}, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// InsertBatchCtx mirrors DB.InsertBatch: it inserts rows as one
// all-or-nothing batch over a single round trip, returning the assigned
// IDs in order.
func (c *Client) InsertBatchCtx(ctx context.Context, table string, rows []Row) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	var resp insertBatchResp
	if err := c.pool.CallCtx(ctx, "store.insert_batch", &insertBatchReq{Table: table, Rows: rows}, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// GetCtx mirrors DB.Get, bounded by a context.
func (c *Client) GetCtx(ctx context.Context, table string, id int64) (Row, error) {
	var row Row
	if err := c.pool.CallCtx(ctx, "store.get", getReq{Table: table, ID: id}, &row); err != nil {
		return nil, err
	}
	return row, nil
}

// UpdateCtx mirrors DB.Update, bounded by a context.
func (c *Client) UpdateCtx(ctx context.Context, table string, id int64, updates Row) error {
	return c.pool.CallCtx(ctx, "store.update", updateReq{Table: table, ID: id, Updates: updates}, nil)
}

// DeleteCtx mirrors DB.Delete, bounded by a context.
func (c *Client) DeleteCtx(ctx context.Context, table string, id int64) error {
	return c.pool.CallCtx(ctx, "store.delete", deleteReq{Table: table, ID: id}, nil)
}

// SelectCtx mirrors DB.Select, bounded by a context.
func (c *Client) SelectCtx(ctx context.Context, q Query) ([]Row, error) {
	var rows []Row
	if err := c.pool.CallCtx(ctx, "store.select", q, (*rowList)(&rows)); err != nil {
		return nil, err
	}
	return rows, nil
}

// CallProcCtx invokes a stored procedure registered on the server, decoding
// the result into out (may be nil).
func (c *Client) CallProcCtx(ctx context.Context, proc string, args any, out any) error {
	var raw json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return fmt.Errorf("store: marshal proc args: %w", err)
		}
		raw = b
	}
	return c.pool.CallCtx(ctx, "store.call", callReq{Proc: proc, Args: raw}, out)
}

// DeleteBatchCtx removes many rows in one round trip, returning how many
// actually existed — the rebalance cleanup path.
func (c *Client) DeleteBatchCtx(ctx context.Context, table string, ids []int64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	var resp deleteBatchResp
	if err := c.pool.CallCtx(ctx, "store.delete_batch", &deleteBatchReq{Table: table, IDs: ids}, &resp); err != nil {
		return 0, err
	}
	return resp.Removed, nil
}

// CountsCtx mirrors DB.Counts: live row count per table.
func (c *Client) CountsCtx(ctx context.Context) (map[string]int, error) {
	var resp countsResp
	if err := c.pool.CallCtx(ctx, "store.counts", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// ExportCtx downloads the whole database as a Snapshot — how an operator
// dumps a study's dataset from the live Database server.
func (c *Client) ExportCtx(ctx context.Context) (*Snapshot, error) {
	var snap Snapshot
	if err := c.pool.CallCtx(ctx, "store.export", nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// ImportRowsCtx mirrors DB.ImportRows for rows already encoded as a JSON
// array (the caller counts the bytes it ships): each lands under the ID
// it carries unless that ID is present. The shard router's dual-writes
// and the rebalance stream move rows between a plane's engines with it.
func (c *Client) ImportRowsCtx(ctx context.Context, table string, rowsJSON []byte) (int, error) {
	var resp importRowsResp
	if err := c.pool.CallCtx(ctx, "store.import_rows", &importRowsReq{Table: table, Rows: rowsJSON}, &resp); err != nil {
		return 0, err
	}
	return resp.Stored, nil
}

// Close releases the connection pool.
func (c *Client) Close() error { return c.pool.Close() }
