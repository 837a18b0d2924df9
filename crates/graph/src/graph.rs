//! The reinforcement graph G = (V, E) with V = P ∪ Q ∪ T.
//!
//! Pages connect to the queries that can retrieve them (paper Fig. 2c) and
//! queries connect to the templates that can abstract them (Fig. 5b).
//! Every edge weighs 1: the paper's plain retrievability. (The paper also
//! allows retrieval scores as weights; nothing here uses them.) A vertex's
//! degree is therefore its neighbour count.
//!
//! A [`ReinforcementGraph`] stores each of its four adjacency directions
//! as CSR [`Rows`] — one offsets array plus one packed neighbour-id array
//! — with each edge's sender coefficient `1 / deg(sender)` beside them,
//! so a solver sweep walks packed memory and the recall walk's per-edge
//! division happens once at build time instead of once per edge per
//! sweep. Both phases freeze their graphs with
//! [`ReinforcementGraph::from_unit_rows`]: each query's page and template
//! rows move into the graph and are transposed once. [`GraphBuilder`]
//! takes edges one at a time; it is the reference the tests hold the row
//! constructor to.
//!
//! Per-vertex neighbour order is the rows' order, or the edge insertion
//! order of a [`GraphBuilder`] (its fill is a stable counting sort), so float
//! summation order — and hence the solver's bit-exact output — is fixed
//! by the caller's edge order.

/// Index of a page vertex within a graph.
pub type PageIdx = u32;
/// Index of a query vertex within a graph.
pub type QueryIdx = u32;
/// Index of a template vertex within a graph.
pub type TemplateIdx = u32;

/// Builder for a [`ReinforcementGraph`], one edge at a time.
#[derive(Default, Debug)]
pub struct GraphBuilder {
    n_pages: usize,
    n_queries: usize,
    n_templates: usize,
    pq: Vec<(PageIdx, QueryIdx)>,
    qt: Vec<(QueryIdx, TemplateIdx)>,
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

    /// Add a page–query edge (`q` can retrieve `p`). Adding it again adds
    /// a parallel edge.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn page_query(&mut self, p: PageIdx, q: QueryIdx) -> &mut Self {
        assert!((p as usize) < self.n_pages, "page index {p} out of range");
        assert!(
            (q as usize) < self.n_queries,
            "query index {q} out of range"
        );
        self.pq.push((p, q));
        self
    }

    /// Add a query–template edge (`t` abstracts `q`).
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn query_template(&mut self, q: QueryIdx, t: TemplateIdx) -> &mut Self {
        assert!(
            (q as usize) < self.n_queries,
            "query index {q} out of range"
        );
        assert!(
            (t as usize) < self.n_templates,
            "template index {t} out of range"
        );
        self.qt.push((q, t));
        self
    }

    /// Freeze into an immutable graph.
    pub fn build(self) -> ReinforcementGraph {
        ReinforcementGraph::from_directions(
            Rows::fill(self.n_queries, self.pq.iter().map(|&(p, q)| (q, p))),
            Rows::fill(self.n_pages, self.pq.iter().copied()),
            Rows::fill(self.n_queries, self.qt.iter().copied()),
            Rows::fill(self.n_templates, self.qt.iter().map(|&(q, t)| (t, q))),
        )
    }
}

/// CSR adjacency rows: row `v` is `to[off[v]..off[v + 1]]`, the
/// neighbours of source `v` in edge order. The phases emit one page row
/// and one template row per query; a graph keeps one per direction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    /// Row offsets, one more than there are rows; `off[0] == 0`.
    pub off: Vec<u32>,
    /// Neighbour indices, row after row.
    pub to: Vec<u32>,
}

impl Rows {
    /// No rows yet: push each row's neighbours, then [`Rows::end_row`].
    pub fn with_capacity(rows: usize, edges: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Self {
            off,
            to: Vec::with_capacity(edges),
        }
    }

    /// Row `v`.
    pub fn row(&self, v: usize) -> &[u32] {
        &self.to[self.off[v] as usize..self.off[v + 1] as usize]
    }

    /// Close the current row.
    pub fn end_row(&mut self) {
        assert!(
            self.to.len() <= u32::MAX as usize,
            "edge count overflows CSR"
        );
        self.off.push(self.to.len() as u32);
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Length of row `v`: a degree.
    pub(crate) fn degree(&self, v: usize) -> u32 {
        self.off[v + 1] - self.off[v]
    }

    /// Rows over `n_src` sources from `(source, neighbour)` edges: a
    /// stable counting sort, so each row keeps the edges' order
    /// ([`GraphBuilder::build`]'s fill).
    fn fill(n_src: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut off = vec![0u32; n_src + 1];
        for (src, _) in edges.clone() {
            off[src as usize + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cursor: Vec<u32> = off[..n_src].to_vec();
        let mut to = vec![0u32; off[n_src] as usize];
        for (src, dst) in edges {
            let slot = &mut cursor[src as usize];
            to[*slot as usize] = dst;
            *slot += 1;
        }
        Self { off, to }
    }

    /// These rows' transpose over `n_dst` neighbours: each neighbour's
    /// sources, ascending (a counting sort over the rows).
    ///
    /// # Panics
    /// On rows not starting at offset 0 and on out-of-range neighbours.
    fn transpose(&self, n_dst: usize) -> Self {
        assert_eq!(self.off.first(), Some(&0), "rows must start at offset 0");
        let mut off = vec![0u32; n_dst + 1];
        for &d in &self.to {
            assert!((d as usize) < n_dst, "neighbour index {d} out of range");
            off[d as usize + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cursor: Vec<u32> = off[..n_dst].to_vec();
        let mut to = vec![0u32; self.to.len()];
        for (v, w) in self.off.windows(2).enumerate() {
            for &d in &self.to[w[0] as usize..w[1] as usize] {
                let slot = &mut cursor[d as usize];
                to[*slot as usize] = v as u32;
                *slot += 1;
            }
        }
        Self { off, to }
    }
}

/// One adjacency direction: CSR [`Rows`] and, beside them, each edge's
/// sender coefficient — the graph's four directions and the fused
/// solver's four sweep tables.
#[derive(Debug, PartialEq)]
pub(crate) struct Adjacency {
    pub(crate) rows: Rows,
    pub(crate) coef: Vec<f64>,
}

/// Both directions of one side of the graph, each edge carrying its
/// sender coefficient `1 / deg(sender)`. A sender's degree is the length
/// of its row in the other direction, never zero for the sender of an
/// edge.
fn side(forward: Rows, backward: Rows) -> (Adjacency, Adjacency) {
    let coef = |rows: &Rows, senders: &Rows| -> Vec<f64> {
        (rows.to.iter())
            .map(|&s| 1.0 / f64::from(senders.degree(s as usize)))
            .collect()
    };
    let (fc, bc) = (coef(&forward, &backward), coef(&backward, &forward));
    (
        Adjacency {
            rows: forward,
            coef: fc,
        },
        Adjacency {
            rows: backward,
            coef: bc,
        },
    )
}

impl Adjacency {
    /// Row `v` of each source `v < n` of `row`, its neighbours mapped
    /// through `target` and its coefficients copied.
    pub(crate) fn remapped<'a>(
        n: usize,
        row: impl Fn(usize) -> (&'a [u32], &'a [f64]),
        target: impl Fn(u32) -> u32,
    ) -> Self {
        let edges: usize = (0..n).map(|v| row(v).0.len()).sum();
        let mut rows = Rows::with_capacity(n, edges);
        let mut coef = Vec::with_capacity(edges);
        for v in 0..n {
            let (to, c) = row(v);
            rows.to.extend(to.iter().map(|&d| target(d)));
            coef.extend_from_slice(c);
            rows.end_row();
        }
        Self { rows, coef }
    }

    /// Source `v`'s neighbours and their coefficients.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> (&[u32], &[f64]) {
        let r = self.rows.off[v] as usize..self.rows.off[v + 1] as usize;
        (&self.rows.to[r.clone()], &self.coef[r])
    }
}

/// Frozen tripartite reinforcement graph, every edge weighing 1: each of
/// its four directions is CSR [`Rows`] with each edge's sender
/// coefficient beside them.
#[derive(Debug, PartialEq)]
pub struct ReinforcementGraph {
    pub(crate) page_query: Adjacency,
    pub(crate) query_page: Adjacency,
    pub(crate) query_template: Adjacency,
    pub(crate) template_query: Adjacency,
}

impl ReinforcementGraph {
    /// Freeze query-major rows: row `q` of `pages` lists the pages query
    /// `q` retrieves and row `q` of `templates` the templates abstracting
    /// it, each in edge order (a row may repeat a neighbour, which adds a
    /// parallel edge). The rows become the graph's query-major
    /// directions and each is transposed once. The result equals, field
    /// for field, a [`GraphBuilder`] fed the same edges query-major.
    ///
    /// # Panics
    /// On rows of unequal count and on out-of-range neighbours.
    pub fn from_unit_rows(
        n_pages: usize,
        n_templates: usize,
        pages: Rows,
        templates: Rows,
    ) -> Self {
        assert_eq!(
            pages.off.len(),
            templates.off.len(),
            "one page and one template row per query"
        );
        let (page_rows, template_rows) =
            (pages.transpose(n_pages), templates.transpose(n_templates));
        Self::from_directions(pages, page_rows, templates, template_rows)
    }

    /// The graph of its four directions' rows.
    fn from_directions(
        query_page: Rows,
        page_query: Rows,
        query_template: Rows,
        template_query: Rows,
    ) -> Self {
        let (query_page, page_query) = side(query_page, page_query);
        let (query_template, template_query) = side(query_template, template_query);
        Self {
            page_query,
            query_page,
            query_template,
            template_query,
        }
    }

    /// Number of page vertices.
    pub fn n_pages(&self) -> usize {
        self.page_query.rows.len()
    }

    /// Number of query vertices.
    pub fn n_queries(&self) -> usize {
        self.query_page.rows.len()
    }

    /// Number of template vertices.
    pub fn n_templates(&self) -> usize {
        self.template_query.rows.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.query_page.rows.to.len() + self.query_template.rows.to.len()
    }

    /// Query neighbours of page `p`, in edge order.
    #[inline]
    pub fn page_queries(&self, p: usize) -> &[u32] {
        self.page_query.rows.row(p)
    }

    /// Page neighbours of query `q`, in edge order.
    #[inline]
    pub fn query_pages(&self, q: usize) -> &[u32] {
        self.query_page.rows.row(q)
    }

    /// Template neighbours of query `q`, in edge order.
    #[inline]
    pub fn query_templates(&self, q: usize) -> &[u32] {
        self.query_template.rows.row(q)
    }

    /// Query neighbours of template `t`, in edge order.
    #[inline]
    pub fn template_queries(&self, t: usize) -> &[u32] {
        self.template_query.rows.row(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_both_directions() {
        let mut b = GraphBuilder::new(2, 2, 1);
        b.page_query(0, 0)
            .page_query(1, 0)
            .page_query(1, 0)
            .page_query(1, 1)
            .query_template(0, 0);
        let g = b.build();
        assert_eq!(g.n_pages(), 2);
        assert_eq!(g.n_queries(), 2);
        assert_eq!(g.n_templates(), 1);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.page_queries(1), [0, 0, 1]);
        assert_eq!(g.query_pages(0), [0, 1, 1]);
        assert_eq!(g.query_templates(0), [0]);
        assert_eq!(g.template_queries(0), [0]);
        assert!(g.query_templates(1).is_empty());
    }

    #[test]
    fn csr_preserves_insertion_order_per_vertex() {
        // Interleave edges of two pages; each page's neighbor list must
        // come back in the order its own edges were added.
        let mut b = GraphBuilder::new(2, 4, 0);
        b.page_query(0, 3)
            .page_query(1, 2)
            .page_query(0, 1)
            .page_query(1, 0)
            .page_query(0, 2);
        let g = b.build();
        assert_eq!(g.page_queries(0), [3, 1, 2]);
        assert_eq!(g.page_queries(1), [2, 0]);
        // Reverse direction too: query 2 saw page 1 before page 0.
        assert_eq!(g.query_pages(2), [1, 0]);
    }

    #[test]
    fn normalized_weights_align_with_adjacency() {
        // Page 1 retrieves query 0 twice (a parallel edge).
        let mut b = GraphBuilder::new(2, 2, 1);
        b.page_query(0, 0)
            .page_query(1, 0)
            .page_query(1, 0)
            .page_query(1, 1)
            .query_template(0, 0)
            .query_template(1, 0);
        let g = b.build();
        // Page 1's edges: q0 twice (sender degree 3), then q1 (degree 1).
        assert_eq!(g.page_query.row(1).1, [1.0 / 3.0, 1.0 / 3.0, 1.0]);
        // Query 0's page edges: p0 (degree 1), then p1 twice (degree 3).
        assert_eq!(g.query_page.row(0).1, [1.0, 1.0 / 3.0, 1.0 / 3.0]);
        // Query 1's template edge: t0 (degree 2).
        assert_eq!(g.query_template.row(1).1, [0.5]);
        // Template 0's query edges: q0 and q1 (degree 1 each).
        assert_eq!(g.template_query.row(0).1, [1.0, 1.0]);
        // Every coefficient slice is edge-aligned.
        for d in [
            &g.page_query,
            &g.query_page,
            &g.query_template,
            &g.template_query,
        ] {
            assert_eq!(d.rows.to.len(), d.coef.len());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        GraphBuilder::new(1, 1, 0).page_query(5, 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0, 0, 0).build();
        assert_eq!(g.n_pages() + g.n_queries() + g.n_templates(), 0);
    }
}
