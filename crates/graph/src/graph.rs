//! The reinforcement graph G = (V, E) with V = P ∪ Q ∪ T.
//!
//! Pages connect to the queries that can retrieve them (paper Fig. 2c) and
//! queries connect to the templates that can abstract them (Fig. 5b).
//! Edge weights `W` encode connection strength; the paper uses 1 for plain
//! retrievability and allows retrieval scores in `[0, ∞)`.
//!
//! A [`ReinforcementGraph`] stores each adjacency direction in CSR form —
//! one offsets array plus one contiguous [`Edge`] array per direction — so
//! a solver sweep walks packed memory instead of chasing per-vertex `Vec`
//! allocations. Both phases weigh every edge 1 and freeze their graphs
//! with [`ReinforcementGraph::from_unit_rows`], which takes each query's
//! page and template rows and transposes them once. [`GraphBuilder`]
//! takes edges one at a time with any weight; it is the general-weight
//! reference the tests hold the row constructor to. The frozen graph
//! also precomputes the degree sums both walks need:
//!
//! * receiver-side sums (a vertex's own total incident weight per neighbor
//!   class) — the precision walk's normalizers (Eq. 6/8/15/17);
//! * sender-side sums (each neighbor's total weight over the *receiving*
//!   class) — the recall walk's normalizers (Eq. 7/9/16/18);
//! * sender-normalized per-edge weights (`w / deg(sender)`), so the recall
//!   walk's per-edge division happens once at build time instead of once
//!   per edge per solver sweep.
//!
//! Per-vertex neighbor order is the rows' order, or the builder's
//! insertion order (the CSR fill is a stable counting sort), so float
//! summation order — and hence the solver's bit-exact output — is fixed
//! by the caller's edge order.

/// Index of a page vertex within a graph.
pub type PageIdx = u32;
/// Index of a query vertex within a graph.
pub type QueryIdx = u32;
/// Index of a template vertex within a graph.
pub type TemplateIdx = u32;

/// A weighted neighbor entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Neighbor index (interpretation depends on the list it is in).
    pub to: u32,
    /// Edge weight `W ≥ 0`.
    pub weight: f64,
}

/// Builder for a [`ReinforcementGraph`].
#[derive(Default, Debug)]
pub struct GraphBuilder {
    n_pages: usize,
    n_queries: usize,
    n_templates: usize,
    pq: Vec<(PageIdx, QueryIdx, f64)>,
    qt: Vec<(QueryIdx, TemplateIdx, f64)>,
}

impl GraphBuilder {
    /// Start a builder with the given vertex counts.
    pub fn new(n_pages: usize, n_queries: usize, n_templates: usize) -> Self {
        Self {
            n_pages,
            n_queries,
            n_templates,
            pq: Vec::new(),
            qt: Vec::new(),
        }
    }

    /// Add a page–query edge (`q` can retrieve `p`) with weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range indices or negative/non-finite weight.
    pub fn page_query(&mut self, p: PageIdx, q: QueryIdx, w: f64) -> &mut Self {
        assert!((p as usize) < self.n_pages, "page index {p} out of range");
        assert!(
            (q as usize) < self.n_queries,
            "query index {q} out of range"
        );
        assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        if w > 0.0 {
            self.pq.push((p, q, w));
        }
        self
    }

    /// Add a query–template edge (`t` abstracts `q`) with weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range indices or negative/non-finite weight.
    pub fn query_template(&mut self, q: QueryIdx, t: TemplateIdx, w: f64) -> &mut Self {
        assert!(
            (q as usize) < self.n_queries,
            "query index {q} out of range"
        );
        assert!(
            (t as usize) < self.n_templates,
            "template index {t} out of range"
        );
        assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        if w > 0.0 {
            self.qt.push((q, t, w));
        }
        self
    }

    /// Freeze into an immutable graph.
    pub fn build(self) -> ReinforcementGraph {
        let mut page_deg = vec![0.0; self.n_pages];
        let mut query_page_deg = vec![0.0; self.n_queries];
        let mut query_template_deg = vec![0.0; self.n_queries];
        let mut template_deg = vec![0.0; self.n_templates];
        for &(p, q, w) in &self.pq {
            page_deg[p as usize] += w;
            query_page_deg[q as usize] += w;
        }
        for &(q, t, w) in &self.qt {
            query_template_deg[q as usize] += w;
            template_deg[t as usize] += w;
        }

        // Sender-normalized weights (`w / sender_degree`, the recall
        // walk's per-edge coefficient) are graph constants: hoisting the
        // division out of the solver turns ~100 divisions per edge per
        // solve into one, without changing a single result bit — the
        // same quotient just gets computed once.
        let direction = |(off, adj): (Vec<u32>, Vec<Edge>), sender_deg: &[f64]| Direction {
            nrm: normalized(&adj, sender_deg),
            off,
            adj,
            deg: Vec::new(),
        };
        let pq = csr(self.n_pages, &self.pq, |&(p, q, w)| (p, q, w));
        let qp = csr(self.n_queries, &self.pq, |&(p, q, w)| (q, p, w));
        let qt = csr(self.n_queries, &self.qt, |&(q, t, w)| (q, t, w));
        let tq = csr(self.n_templates, &self.qt, |&(q, t, w)| (t, q, w));
        let mut page_query = direction(pq, &query_page_deg);
        let mut query_page = direction(qp, &page_deg);
        let mut query_template = direction(qt, &template_deg);
        let mut template_query = direction(tq, &query_template_deg);
        page_query.deg = page_deg;
        query_page.deg = query_page_deg;
        query_template.deg = query_template_deg;
        template_query.deg = template_deg;
        ReinforcementGraph::from_directions(query_page, page_query, query_template, template_query)
    }
}

/// Per-edge sender-normalized weight: `w / deg(sender)`, 0 for an
/// (impossible in practice) zero-degree sender — matching the solver's
/// old inline guard bit for bit.
fn normalized(adj: &[Edge], sender_deg: &[f64]) -> Vec<f64> {
    adj.iter()
        .map(|e| {
            let d = sender_deg[e.to as usize];
            if d > 0.0 {
                e.weight / d
            } else {
                0.0
            }
        })
        .collect()
}

/// Build one CSR direction: per-source offsets plus a packed neighbor
/// array. The fill is a stable counting sort, so each source's neighbors
/// keep the builder's insertion order.
fn csr<T>(n_src: usize, edges: &[T], key: impl Fn(&T) -> (u32, u32, f64)) -> (Vec<u32>, Vec<Edge>) {
    assert!(edges.len() <= u32::MAX as usize, "edge count overflows CSR");
    let mut off = vec![0u32; n_src + 1];
    for e in edges {
        off[key(e).0 as usize + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    let mut cursor: Vec<u32> = off[..n_src].to_vec();
    let mut adj = vec![Edge { to: 0, weight: 0.0 }; edges.len()];
    for e in edges {
        let (src, dst, w) = key(e);
        let slot = &mut cursor[src as usize];
        adj[*slot as usize] = Edge { to: dst, weight: w };
        *slot += 1;
    }
    (off, adj)
}

/// Query-major adjacency rows: row `q` is `to[off[q]..off[q + 1]]`, the
/// neighbours of query `q` in edge order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryRows {
    /// Row offsets, one more than there are queries; `off[0] == 0`.
    pub off: Vec<u32>,
    /// Neighbour indices, row after row.
    pub to: Vec<u32>,
}

impl QueryRows {
    /// No rows yet: push each row's neighbours, then [`QueryRows::end_row`].
    pub fn with_capacity(rows: usize, edges: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Self {
            off,
            to: Vec::with_capacity(edges),
        }
    }

    /// Row `q`.
    pub fn row(&self, q: usize) -> &[u32] {
        &self.to[self.off[q] as usize..self.off[q + 1] as usize]
    }

    /// Close the current row.
    pub fn end_row(&mut self) {
        assert!(
            self.to.len() <= u32::MAX as usize,
            "edge count overflows CSR"
        );
        self.off.push(self.to.len() as u32);
    }

    /// Both directions of these unit-weight rows: the rows themselves
    /// and their transpose over `n_dst` neighbours (each neighbour's
    /// rows, ascending). Degrees are edge counts, exactly the sums of
    /// unit weights a [`GraphBuilder`] forms.
    fn freeze(self, n_dst: usize) -> (Direction, Direction) {
        assert_eq!(self.off.first(), Some(&0), "rows must start at offset 0");
        let mut dst_off = vec![0u32; n_dst + 1];
        for &d in &self.to {
            assert!((d as usize) < n_dst, "neighbour index {d} out of range");
            dst_off[d as usize + 1] += 1;
        }
        for i in 1..dst_off.len() {
            dst_off[i] += dst_off[i - 1];
        }
        let mut cursor: Vec<u32> = dst_off[..n_dst].to_vec();
        let mut dst_adj = vec![Edge { to: 0, weight: 1.0 }; self.to.len()];
        for (q, w) in self.off.windows(2).enumerate() {
            for &d in &self.to[w[0] as usize..w[1] as usize] {
                let slot = &mut cursor[d as usize];
                dst_adj[*slot as usize].to = q as u32;
                *slot += 1;
            }
        }
        let degrees =
            |off: &[u32]| -> Vec<f64> { off.windows(2).map(|w| f64::from(w[1] - w[0])).collect() };
        let (row_deg, dst_deg) = (degrees(&self.off), degrees(&dst_off));
        // Unit weights: each coefficient is 1 / (the sender's degree).
        let rows = Direction {
            adj: self
                .to
                .iter()
                .map(|&d| Edge { to: d, weight: 1.0 })
                .collect(),
            nrm: self.to.iter().map(|&d| 1.0 / dst_deg[d as usize]).collect(),
            off: self.off,
            deg: row_deg,
        };
        let transposed = Direction {
            nrm: dst_adj
                .iter()
                .map(|e| 1.0 / rows.deg[e.to as usize])
                .collect(),
            off: dst_off,
            adj: dst_adj,
            deg: dst_deg,
        };
        (rows, transposed)
    }
}

/// One adjacency direction of a frozen side: CSR offsets and edges,
/// sender-normalized coefficients, and each source's degree.
struct Direction {
    off: Vec<u32>,
    adj: Vec<Edge>,
    nrm: Vec<f64>,
    deg: Vec<f64>,
}

/// Frozen tripartite reinforcement graph in CSR form with degree caches.
#[derive(Debug, PartialEq)]
pub struct ReinforcementGraph {
    page_query_off: Vec<u32>,
    page_query_adj: Vec<Edge>,
    page_query_nrm: Vec<f64>,
    query_page_off: Vec<u32>,
    query_page_adj: Vec<Edge>,
    query_page_nrm: Vec<f64>,
    query_template_off: Vec<u32>,
    query_template_adj: Vec<Edge>,
    query_template_nrm: Vec<f64>,
    template_query_off: Vec<u32>,
    template_query_adj: Vec<Edge>,
    template_query_nrm: Vec<f64>,
    /// Σ weights of a page's query edges.
    pub page_deg: Vec<f64>,
    /// Σ weights of a query's page edges.
    pub query_page_deg: Vec<f64>,
    /// Σ weights of a query's template edges.
    pub query_template_deg: Vec<f64>,
    /// Σ weights of a template's query edges.
    pub template_deg: Vec<f64>,
    n_edges: usize,
}

#[inline]
fn slice_of<'a>(off: &[u32], adj: &'a [Edge], v: usize) -> &'a [Edge] {
    &adj[off[v] as usize..off[v + 1] as usize]
}

impl ReinforcementGraph {
    /// Freeze unit-weight query-major rows: row `q` of `pages` lists the
    /// pages query `q` retrieves and row `q` of `templates` the templates
    /// abstracting it, each in edge order (a row may repeat a neighbour,
    /// which adds a parallel edge). Each side is transposed once. The
    /// result equals, field for field, a [`GraphBuilder`] fed the same
    /// edges query-major with weight 1.
    ///
    /// # Panics
    /// On rows of unequal count and on out-of-range neighbours.
    pub fn from_unit_rows(
        n_pages: usize,
        n_templates: usize,
        pages: QueryRows,
        templates: QueryRows,
    ) -> Self {
        assert_eq!(
            pages.off.len(),
            templates.off.len(),
            "one page and one template row per query"
        );
        let (query_page, page_query) = pages.freeze(n_pages);
        let (query_template, template_query) = templates.freeze(n_templates);
        Self::from_directions(query_page, page_query, query_template, template_query)
    }

    /// The graph of its four frozen adjacency directions.
    fn from_directions(
        query_page: Direction,
        page_query: Direction,
        query_template: Direction,
        template_query: Direction,
    ) -> Self {
        Self {
            n_edges: query_page.adj.len() + query_template.adj.len(),
            page_query_off: page_query.off,
            page_query_adj: page_query.adj,
            page_query_nrm: page_query.nrm,
            query_page_off: query_page.off,
            query_page_adj: query_page.adj,
            query_page_nrm: query_page.nrm,
            query_template_off: query_template.off,
            query_template_adj: query_template.adj,
            query_template_nrm: query_template.nrm,
            template_query_off: template_query.off,
            template_query_adj: template_query.adj,
            template_query_nrm: template_query.nrm,
            page_deg: page_query.deg,
            query_page_deg: query_page.deg,
            query_template_deg: query_template.deg,
            template_deg: template_query.deg,
        }
    }

    /// Number of page vertices.
    pub fn n_pages(&self) -> usize {
        self.page_query_off.len() - 1
    }

    /// Number of query vertices.
    pub fn n_queries(&self) -> usize {
        self.query_page_off.len() - 1
    }

    /// Number of template vertices.
    pub fn n_templates(&self) -> usize {
        self.template_query_off.len() - 1
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Query neighbors of page `p`, in edge insertion order.
    #[inline]
    pub fn page_queries(&self, p: usize) -> &[Edge] {
        slice_of(&self.page_query_off, &self.page_query_adj, p)
    }

    /// Page neighbors of query `q`, in edge insertion order.
    #[inline]
    pub fn query_pages(&self, q: usize) -> &[Edge] {
        slice_of(&self.query_page_off, &self.query_page_adj, q)
    }

    /// Template neighbors of query `q`, in edge insertion order.
    #[inline]
    pub fn query_templates(&self, q: usize) -> &[Edge] {
        slice_of(&self.query_template_off, &self.query_template_adj, q)
    }

    /// Query neighbors of template `t`, in edge insertion order.
    #[inline]
    pub fn template_queries(&self, t: usize) -> &[Edge] {
        slice_of(&self.template_query_off, &self.template_query_adj, t)
    }

    /// Sender-normalized weights aligned with [`Self::page_queries`]:
    /// `w / query_page_deg(q)` per edge.
    #[inline]
    pub fn page_queries_nrm(&self, p: usize) -> &[f64] {
        &self.page_query_nrm[self.page_query_off[p] as usize..self.page_query_off[p + 1] as usize]
    }

    /// Sender-normalized weights aligned with [`Self::query_pages`]:
    /// `w / page_deg(p)` per edge.
    #[inline]
    pub fn query_pages_nrm(&self, q: usize) -> &[f64] {
        &self.query_page_nrm[self.query_page_off[q] as usize..self.query_page_off[q + 1] as usize]
    }

    /// Sender-normalized weights aligned with [`Self::query_templates`]:
    /// `w / template_deg(t)` per edge.
    #[inline]
    pub fn query_templates_nrm(&self, q: usize) -> &[f64] {
        &self.query_template_nrm
            [self.query_template_off[q] as usize..self.query_template_off[q + 1] as usize]
    }

    /// Sender-normalized weights aligned with [`Self::template_queries`]:
    /// `w / query_template_deg(q)` per edge.
    #[inline]
    pub fn template_queries_nrm(&self, t: usize) -> &[f64] {
        &self.template_query_nrm
            [self.template_query_off[t] as usize..self.template_query_off[t + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_both_directions() {
        let mut b = GraphBuilder::new(2, 2, 1);
        b.page_query(0, 0, 1.0)
            .page_query(1, 0, 2.0)
            .page_query(1, 1, 1.0)
            .query_template(0, 0, 1.0);
        let g = b.build();
        assert_eq!(g.n_pages(), 2);
        assert_eq!(g.n_queries(), 2);
        assert_eq!(g.n_templates(), 1);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.page_queries(1).len(), 2);
        assert_eq!(g.query_pages(0).len(), 2);
        assert_eq!(g.template_queries(0).len(), 1);
        assert_eq!(g.page_deg[1], 3.0);
        assert_eq!(g.query_page_deg[0], 3.0);
        assert_eq!(g.query_template_deg[0], 1.0);
        assert_eq!(g.template_deg[0], 1.0);
    }

    #[test]
    fn csr_preserves_insertion_order_per_vertex() {
        // Interleave edges of two pages; each page's neighbor list must
        // come back in the order its own edges were added.
        let mut b = GraphBuilder::new(2, 4, 0);
        b.page_query(0, 3, 1.0)
            .page_query(1, 2, 1.0)
            .page_query(0, 1, 2.0)
            .page_query(1, 0, 3.0)
            .page_query(0, 2, 4.0);
        let g = b.build();
        let order: Vec<u32> = g.page_queries(0).iter().map(|e| e.to).collect();
        assert_eq!(order, [3, 1, 2]);
        let order: Vec<u32> = g.page_queries(1).iter().map(|e| e.to).collect();
        assert_eq!(order, [2, 0]);
        // Reverse direction too: query 2 saw page 1 before page 0.
        let order: Vec<u32> = g.query_pages(2).iter().map(|e| e.to).collect();
        assert_eq!(order, [1, 0]);
        let w: Vec<f64> = g.query_pages(2).iter().map(|e| e.weight).collect();
        assert_eq!(w, [1.0, 4.0]);
    }

    #[test]
    fn normalized_weights_align_with_adjacency() {
        let mut b = GraphBuilder::new(2, 2, 1);
        b.page_query(0, 0, 1.0)
            .page_query(1, 0, 2.0)
            .page_query(1, 1, 1.0)
            .query_template(0, 0, 1.0)
            .query_template(1, 0, 3.0);
        let g = b.build();
        // Page 1's edges: q0 (sender deg 3.0) then q1 (sender deg 1.0).
        assert_eq!(g.page_queries_nrm(1), [2.0 / 3.0, 1.0 / 1.0]);
        // Query 0's page edges: p0 (deg 1.0), p1 (deg 3.0).
        assert_eq!(g.query_pages_nrm(0), [1.0 / 1.0, 2.0 / 3.0]);
        // Query 1's template edge: t0 (deg 4.0).
        assert_eq!(g.query_templates_nrm(1), [3.0 / 4.0]);
        // Template 0's query edges: q0 (deg 1.0), q1 (deg 3.0).
        assert_eq!(g.template_queries_nrm(0), [1.0 / 1.0, 3.0 / 3.0]);
        // Every nrm slice is edge-aligned.
        for p in 0..g.n_pages() {
            assert_eq!(g.page_queries(p).len(), g.page_queries_nrm(p).len());
        }
        for q in 0..g.n_queries() {
            assert_eq!(g.query_pages(q).len(), g.query_pages_nrm(q).len());
            assert_eq!(g.query_templates(q).len(), g.query_templates_nrm(q).len());
        }
    }

    #[test]
    fn zero_weight_edges_are_dropped() {
        let mut b = GraphBuilder::new(1, 1, 0);
        b.page_query(0, 0, 0.0);
        let g = b.build();
        assert_eq!(g.n_edges(), 0);
        assert!(g.page_queries(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        GraphBuilder::new(1, 1, 0).page_query(5, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn negative_weight_panics() {
        GraphBuilder::new(1, 1, 0).page_query(0, 0, -1.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0, 0, 0).build();
        assert_eq!(g.n_pages() + g.n_queries() + g.n_templates(), 0);
    }
}
