//! The PostgresRaw in-situ scan operator (§4).
//!
//! This operator is where the paper's techniques meet:
//!
//! * **Selective tokenizing** — sequential passes stop scanning a tuple at
//!   the last attribute the query needs.
//! * **Selective parsing** — WHERE attributes are converted first; SELECT
//!   attributes only for qualifying tuples.
//! * **Selective tuple formation** — emitted rows carry only the
//!   projected attributes.
//! * **Positional map** — once the end-of-line index covers a block, the
//!   scan jumps to known attribute positions (or the nearest indexed
//!   anchor, tokenizing forward/backward) instead of re-tokenizing from
//!   the line start; positions computed along the way are fed back.
//! * **Cache** — values converted for this query are inserted; future
//!   queries read them without touching the raw file.
//! * **Statistics** — a sample of parsed values feeds the optimizer on
//!   first touch of each attribute.
//!
//! Internally the scan works block-at-a-time (one positional-map block,
//! default 4096 tuples) for locality, but exposes the Volcano
//! one-tuple-per-call interface the host executor expects. One
//! per-record body (`select_record`) does selective parsing and tuple
//! formation for both the cold kernel and the mapped path; each supplies
//! its value source (a raw parse at the tokenized start, or a cache/map
//! lookup).
//!
//! # Concurrency
//!
//! The table runtime is lock-split ([`RawTableRuntime`]); any number of
//! scans may run against one table at once:
//!
//! * **Warm (map-covered) regions** are read under *shared* locks: the
//!   per-block temporary map and the cache columns are snapshotted, the
//!   locks released, and rows produced without holding anything. Freshly
//!   collected chunks/columns are merged back in short write sections.
//! * **Cold regions** run one record kernel (`scan_records`): tokenize,
//!   pushdown screen, selective parse, filter, and stage into private
//!   staging (EOL segment, positional-map segment, cache stage, sampled
//!   statistics, qualifying rows). The single-threaded pass is one
//!   kernel call on the calling thread, bounded to the rest of the
//!   current positional-map block. With `scan_threads > 1` the
//!   un-indexed byte range is instead split into line-aligned chunks
//!   ([`nodb_csv::split_line_aligned`]), one kernel call per scoped
//!   worker. Both passes fold their staging through one merge that
//!   walks the runs in file order, so rows are emitted exactly as a
//!   single-threaded scan would emit them.
//! * Concurrent cold scans of the same region are safe: the EOL index
//!   ignores re-recorded rows, newer map chunks shadow identical older
//!   ones, and cache merges fill holes with equal values.

use std::collections::VecDeque;
use std::ops::DerefMut;
use std::path::PathBuf;
use std::sync::Arc;

use nodb_cache::{CachedColumn, ChunkStage, ColumnBuilder};
use nodb_common::{
    ByteSource, DataType, IoBackend, LineFormat, NoDbError, Result, Row, Schema, Value,
};
use nodb_csv::lines::{split_line_aligned_src, ByteRange, LineReader, SlidingWindow};
use nodb_exec::{eval_predicate, Operator, ValueBatch};
use nodb_posmap::{AttrPositions, PositionalMap, SegmentCollector};
use nodb_sql::BoundExpr;
use nodb_stats::StatsBuilder;

use crate::pred::ScanPredicate;
use crate::profile::{self, PhaseProfile, PhaseProfileAtomic, SampledClock};
use crate::runtime::{RawTableRuntime, ScanMetrics};

/// Which auxiliary structures this scan may read and write.
#[derive(Debug, Clone, Copy)]
pub struct AuxFlags {
    /// Use/populate the positional map's attribute chunks.
    pub posmap: bool,
    /// Use/populate the binary cache.
    pub cache: bool,
    /// Keep the end-of-line index between queries (the minimal map; on
    /// for every variant except the external-files straw man).
    pub eol: bool,
    /// Collect statistics.
    pub stats: bool,
}

/// Immutable per-scan context (kept apart from the mutable scan state so
/// helpers and chunk workers can borrow it freely).
struct Ctx {
    schema: Schema,
    /// The raw file being scanned (also names error locations).
    path: PathBuf,
    /// The record tokenizer: how attribute values are located and
    /// converted on one line (CSV, JSON Lines, ...).
    format: Arc<dyn LineFormat>,
    /// Projected table attributes, ascending.
    projection: Vec<usize>,
    /// Conjuncts bound to projection-space ordinals.
    filters: Vec<BoundExpr>,
    /// Whether the file's first line is a header to skip.
    has_header: bool,
    /// Resolved I/O substrate (`Read` or `Mmap`, never `Auto`): how every
    /// reader/window this scan opens reaches the raw bytes. Purely a
    /// transport choice — results and metrics are identical across
    /// backends.
    io: IoBackend,
    where_locals: Vec<usize>,
    select_locals: Vec<usize>,
    sample_stride: u64,
    /// Compiled early-reject screen (pushdown enabled and at least one
    /// conjunct compiled). Cold passes consult it only when no auxiliary
    /// structure is being populated — see [`InSituScanOp::with_pushdown`].
    pred: Option<ScanPredicate>,
}

impl Ctx {
    fn dtype(&self, local: usize) -> DataType {
        self.schema.field(self.projection[local]).dtype
    }
}

/// Unwrap an `Option` held by a control-flow invariant (a lock guard
/// taken when a flag is set, a reader opened earlier in the pass) with a
/// located internal error instead of a panic — hot-path modules are
/// panic-free (enforced by `nodb-analyze`'s panic-path arm).
fn held<T>(opt: Option<T>, what: &'static str) -> Result<T> {
    opt.ok_or_else(|| NoDbError::internal(format!("scan invariant violated: {what}")))
}

/// The in-situ scan operator.
pub struct InSituScanOp {
    runtime: Arc<RawTableRuntime>,
    flags: AuxFlags,
    /// Cold-scan worker threads (resolved; ≥ 1).
    threads: usize,
    ctx: Ctx,

    /// The accumulator of the query this scan belongs to, captured from
    /// the thread-local installed by `Statement::execute` at operator
    /// construction time (`None` for scans built outside a query, e.g.
    /// idle-time exploitation).
    query_profile: Option<Arc<PhaseProfileAtomic>>,

    prepared: bool,
    done: bool,
    out: VecDeque<Row>,
    window: Option<SlidingWindow>,
    reader: Option<LineReader>,
    next_row: u64,
    /// Positional-map block granularity, read once in [`prepare`] (the
    /// value is fixed at runtime construction) so sequential passes
    /// never re-acquire the map lock for it mid-block.
    block_rows: u64,
    /// Byte offset of row `next_row` whenever `reader` is `None` — lets
    /// the scan continue privately if the shared EOL index is dropped or
    /// rebuilt underneath it (re-records are ignored as out-of-order).
    resume_byte: u64,
    stat_builders: Vec<(usize, StatsBuilder)>,
    /// Whether filters may be compiled into a [`ScanPredicate`]
    /// early-reject screen (off by default; see
    /// [`InSituScanOp::with_pushdown`]).
    pushdown: bool,
}

impl InSituScanOp {
    /// Create a scan. `format` is the record tokenizer for the file's
    /// physical layout; `has_header` skips the file's first line.
    /// `projection` must be ascending table ordinals; `filters` are bound
    /// against the projection layout. `threads` is the cold-scan fan-out,
    /// clamped to ≥ 1 — resolve a 0-means-auto config with
    /// [`crate::NoDbConfig::effective_scan_threads`] first. `io` is the
    /// I/O substrate; `Auto` is resolved here
    /// ([`IoBackend::resolve`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        runtime: Arc<RawTableRuntime>,
        path: PathBuf,
        schema: Schema,
        format: Arc<dyn LineFormat>,
        has_header: bool,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
        flags: AuxFlags,
        sample_stride: u64,
        threads: usize,
        io: IoBackend,
    ) -> InSituScanOp {
        let threads = threads.max(1);
        InSituScanOp {
            runtime,
            flags,
            threads,
            ctx: Ctx {
                schema,
                path,
                format,
                projection,
                filters,
                has_header,
                io: io.resolve(),
                where_locals: Vec::new(),
                select_locals: Vec::new(),
                sample_stride: sample_stride.max(1),
                pred: None,
            },
            query_profile: profile::current_query(),
            prepared: false,
            done: false,
            out: VecDeque::new(),
            window: None,
            reader: None,
            next_row: 0,
            block_rows: 0,
            resume_byte: 0,
            stat_builders: Vec::new(),
            pushdown: false,
        }
    }

    /// Enable predicate pushdown into tokenization: compile eligible
    /// filter conjuncts into a [`ScanPredicate`] and, on passes that
    /// populate no auxiliary structure (no positional-map collection, no
    /// cache staging, no statistics building), tokenize each record only
    /// up to the predicate frontier, test, and skip the rest of the
    /// record on a miss. Rows, auxiliary structures, and emitted values
    /// are identical either way; the only observable differences are the
    /// `rows_rejected_early`/`fields_skipped_early` metrics and that
    /// malformed content in fields past the frontier of a rejected row
    /// no longer raises a parse error (the work that never happened).
    pub fn with_pushdown(mut self, on: bool) -> InSituScanOp {
        self.pushdown = on;
        self
    }

    fn prepare(&mut self) -> Result<()> {
        let meta = std::fs::metadata(&self.ctx.path)?;
        self.runtime.observe_file(&self.ctx.path, &meta)?;
        self.runtime.metrics.add(&ScanMetrics {
            scans: 1,
            ..ScanMetrics::default()
        });
        // Block granularity is fixed at runtime construction; read it
        // here (posmap before stats, per the lock DAG) instead of
        // re-acquiring the map lock inside the block loop.
        self.block_rows = self.runtime.posmap.read().block_rows() as u64;

        let mut where_set = std::collections::BTreeSet::new();
        for f in &self.ctx.filters {
            f.referenced_columns(&mut where_set);
        }
        self.ctx.where_locals = where_set.iter().copied().collect();
        self.ctx.select_locals = (0..self.ctx.projection.len())
            .filter(|i| !where_set.contains(i))
            .collect();

        if self.pushdown && !self.ctx.projection.is_empty() {
            let ctx = &self.ctx;
            self.ctx.pred = ScanPredicate::compile(&ctx.filters, &ctx.projection, |l| ctx.dtype(l));
        }

        // Workload log: one touch per projected attribute per scan (file
        // ordinals, not projection-local ones). Pure observation — with
        // no budget set nothing ever consults it.
        let touched: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();
        self.runtime.workload.record_touches(&touched);

        // Statistics: only for attributes whose values this scan parses
        // for *every* tuple (WHERE attributes always; SELECT attributes
        // only when there is no predicate), and without stats yet.
        if self.flags.stats {
            let candidates: Vec<usize> = if self.ctx.filters.is_empty() {
                (0..self.ctx.projection.len()).collect()
            } else {
                self.ctx.where_locals.clone()
            };
            let stats = self.runtime.stats.lock();
            for local in candidates {
                let attr = self.ctx.projection[local] as u32;
                if !stats.has_column(attr) {
                    self.stat_builders
                        .push((local, StatsBuilder::new(self.ctx.dtype(local))));
                }
            }
        }
        self.prepared = true;
        Ok(())
    }

    /// Publish a block's/pass's locally accumulated phase deltas to the
    /// table's cumulative profile and (when this scan belongs to a
    /// query) the query's.
    fn add_profile(&self, p: &PhaseProfile) {
        if p.is_empty() {
            return;
        }
        self.runtime.profile.add(p);
        if let Some(q) = &self.query_profile {
            q.add(p);
        }
    }

    /// Statistics-builder attributes, parallel to `stat_builders` (the
    /// kernel samples values for these).
    fn stat_locals(&self) -> Vec<usize> {
        self.stat_builders.iter().map(|(l, _)| *l).collect()
    }

    /// Sequential-tokenization region: the rows past the end-of-line
    /// frontier up to the end of the current positional-map block, run as
    /// one bounded kernel call on the calling thread under the map's
    /// write lock. Populates the EOL index and (optionally) map, cache
    /// and statistics while emitting qualifying tuples.
    fn process_sequential_block(&mut self) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        // Scans that maintain no positional state (the external-files /
        // baseline profile) have nothing to write into the map: skip the
        // write lock so concurrent baseline queries never serialize on
        // state they do not touch.
        let mut pm = (self.flags.eol || self.flags.posmap).then(|| runtime.posmap.write());
        if self.reader.is_none() && self.flags.eol {
            // Re-check under the write lock: a concurrent scan may have
            // indexed past us while we waited, in which case the mapped
            // path (or the done check) takes over on the next pump turn.
            if held(pm.as_ref(), "eol flag implies posmap lock")?
                .eol()
                .indexed_rows()
                > self.next_row
            {
                return Ok(());
            }
        }
        if self.reader.is_none() {
            let start = match pm.as_ref() {
                // The shared EOL index was dropped/rebuilt underneath us
                // (e.g. `drop_aux` mid-query): continue privately from
                // our own offset; records from here are out-of-order for
                // the fresh index and ignored.
                Some(pm) if self.flags.eol && pm.eol().indexed_rows() < self.next_row => {
                    self.resume_byte
                }
                Some(pm) => pm.eol().frontier(),
                None => 0,
            };
            let mut reader = LineReader::open_at_with(&self.ctx.path, start, self.ctx.io)?;
            if self.ctx.has_header && start == 0 {
                // Skip the header line; anchor the EOL base past it so
                // that data row 0 starts after the header.
                let mut hdr = Vec::new();
                if reader.next_line(&mut hdr)?.is_some() && self.flags.eol {
                    held(pm.as_mut(), "eol flag implies posmap lock")?
                        .eol_mut()
                        .set_base(reader.offset());
                }
            }
            self.reader = Some(reader);
        }
        let first_row = self.next_row;
        let block_end = (first_row / self.block_rows + 1) * self.block_rows;
        // Chunk storage is anchored at block starts, so a pass resuming
        // mid-block (the tail of an appended file) stages no map rows —
        // the mapped path re-collects the grown block from its start.
        let staging = AuxFlags {
            posmap: self.flags.posmap && first_row.is_multiple_of(self.block_rows),
            ..self.flags
        };
        let stat_locals = self.stat_locals();
        let reader = held(self.reader.as_mut(), "reader opened above")?;
        let run = scan_records(
            &self.ctx,
            reader,
            block_end - first_row,
            Some(first_row),
            staging,
            &stat_locals,
        )?;
        self.absorb(pm, first_row, vec![run]);
        Ok(())
    }

    /// Chunked parallel pass over the whole un-indexed tail of the file:
    /// split into line-aligned byte ranges, run the kernel on each on a
    /// scoped worker thread into private staging, then merge in file
    /// order.
    fn process_parallel_tail(&mut self) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        // One source for the whole pass: opened (and, on the mmap
        // backend, mapped) once; the boundary probe and every chunk
        // worker slice the same handle, and the length snapshot keeps
        // split and workers consistent under concurrent appends.
        let src = Arc::new(ByteSource::open(&self.ctx.path, self.ctx.io)?);
        let file_len = src.len();
        let (mut start_byte, first_row) = {
            let pm = runtime.posmap.read();
            (pm.eol().frontier(), pm.eol().indexed_rows())
        };
        if self.flags.eol && first_row != self.next_row {
            // Raced with a concurrent scan (index grew past us → mapped
            // path) or an invalidation (index shrank → private sequential
            // resume); pump re-dispatches either way.
            return Ok(());
        }
        if self.ctx.has_header && start_byte == 0 && first_row == 0 {
            // Locate the end of the header line before chunking.
            let mut r = LineReader::from_source(
                Arc::clone(&src),
                ByteRange {
                    start: 0,
                    end: u64::MAX,
                },
            );
            let mut hdr = Vec::new();
            if r.next_line(&mut hdr)?.is_some() {
                start_byte = r.offset();
                if self.flags.eol {
                    runtime.posmap.write().eol_mut().set_base(start_byte);
                }
            }
        }
        let ranges = split_line_aligned_src(&src, start_byte, file_len, self.threads)?;

        // Fan out: one scoped worker per chunk, each with private staging.
        let stat_locals = self.stat_locals();
        let ctx = &self.ctx;
        let flags = self.flags;
        let results: Vec<Result<ChunkScan>> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    let stat_locals = &stat_locals;
                    let src = Arc::clone(&src);
                    s.spawn(move || {
                        let mut reader = LineReader::from_source(src, range);
                        scan_records(ctx, &mut reader, u64::MAX, None, flags, stat_locals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(NoDbError::internal("scan worker panicked")))
                })
                .collect()
        });
        let outputs = results.into_iter().collect::<Result<Vec<_>>>()?;
        let pm = (self.flags.eol || self.flags.posmap).then(|| runtime.posmap.write());
        self.absorb(pm, first_row, outputs);
        Ok(())
    }

    /// The merge both cold passes share: fold kernel runs — consecutive
    /// in file order, the first starting at global row `first_row` —
    /// into the scan and the table's auxiliary structures. EOL segments
    /// and block-aligned map chunks go in under `pm` (the map's write
    /// lock, held when this scan maintains positional state); cache
    /// columns after the lock is released. The pass reached the end of
    /// the file when its last run did (a pass of no runs found nothing
    /// left to read).
    fn absorb(
        &mut self,
        mut pm: Option<impl DerefMut<Target = PositionalMap>>,
        first_row: u64,
        runs: Vec<ChunkScan>,
    ) {
        let eof = runs.last().is_none_or(|r| r.eof);
        let mut metrics = ScanMetrics::default();
        let mut prof = PhaseProfile::default();
        let mut seg_acc: Option<SegmentCollector> = None;
        let mut stage_acc: Option<ChunkStage> = None;
        let mut rows: u64 = 0;
        for run in runs {
            if self.flags.eol {
                if let Some(pm) = pm.as_mut() {
                    pm.eol_mut()
                        .absorb_segment(first_row + rows, &run.line_starts, run.end);
                }
            }
            if let Some(seg) = run.posmap {
                match seg_acc.as_mut() {
                    Some(acc) => acc.append(seg),
                    None => seg_acc = Some(seg),
                }
            }
            if let Some(stage) = run.cache {
                match stage_acc.as_mut() {
                    // CAST: a pass covers < 2^32 rows (u32 row ids).
                    Some(acc) => acc.append(stage, rows as u32),
                    None => stage_acc = Some(stage),
                }
            }
            for (i, samples) in run.stat_samples.into_iter().enumerate() {
                for v in samples {
                    self.stat_builders[i].1.offer(&v);
                }
            }
            self.out.extend(run.emitted);
            metrics.merge(&run.metrics);
            prof.merge(&run.profile);
            rows += run.line_starts.len() as u64;
        }
        let block_rows = self.block_rows as usize;
        if let Some(pm) = pm.as_mut() {
            // Completing fixes the row count, so only do it when our rows
            // actually reached the index — a drop_aux mid-pass gap-ignores
            // them (or we were continuing privately past a dropped
            // index), and completing an emptied index would freeze
            // row_count at 0 for every other query.
            if eof && self.flags.eol && pm.eol().indexed_rows() == first_row + rows {
                pm.eol_mut().set_complete();
            }
            if let Some(seg) = seg_acc {
                for chunk in seg.into_chunks(first_row, block_rows) {
                    pm.insert(chunk);
                }
            }
        }
        drop(pm);
        if let Some(stage) = stage_acc.filter(|s| !s.is_empty()) {
            let cols = stage.into_columns(first_row, rows, block_rows);
            let mut cache = self.runtime.cache.write();
            for c in cols {
                cache.insert(c);
            }
        }
        self.add_profile(&prof);
        self.runtime.metrics.add(&metrics);
        self.next_row = first_row + rows;
        self.done = eof;
    }

    /// Map-assisted region: the EOL index covers these rows. Everything
    /// the block needs is snapshotted under shared locks; rows are then
    /// produced without holding any lock.
    fn process_mapped_block(&mut self) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        let mut metrics = ScanMetrics::default();
        let mut prof = PhaseProfile::default();
        let mut clock = SampledClock::default();
        let needed: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();

        struct Snapshot {
            block: u64,
            block_start: u64,
            cov_end: u64,
            rows: usize,
            line_starts: Vec<u64>,
            end_bound: u64,
            /// `None` when a needed chunk is spilled (write-lock reload
            /// required).
            entries: Option<Vec<AttrPositions>>,
            collect: bool,
        }
        let snap = {
            let pm = runtime.posmap.read();
            let block_rows = pm.block_rows() as u64;
            let block = pm.block_of(self.next_row);
            let block_start = block * block_rows;
            let covered = pm.eol().indexed_rows();
            if self.next_row >= covered {
                // Raced with an invalidation; pump re-dispatches.
                return Ok(());
            }
            let cov_end = covered.min(block_start + block_rows);
            let rows = (cov_end - block_start) as usize;
            let line_starts: Vec<u64> = pm
                .eol()
                .starts(block_start, cov_end)
                .ok_or_else(|| NoDbError::internal("EOL coverage changed mid-scan"))?
                .to_vec();
            let end_bound = pm
                .eol()
                .start_of(cov_end)
                .unwrap_or_else(|| pm.eol().frontier());
            let (entries, collect) = if self.flags.posmap && !needed.is_empty() {
                // Re-collect when the combination rule fires *or* the
                // block grew past existing chunks (append, §4.5).
                let collect = pm.should_collect(block, &needed)
                    || needed
                        .iter()
                        .any(|&a| (pm.covered_rows(block, a) as u64) < (cov_end - block_start));
                (
                    pm.fetch_block_shared(block, &needed).map(|v| v.entries),
                    collect,
                )
            } else {
                (Some(vec![AttrPositions::None; needed.len()]), false)
            };
            Snapshot {
                block,
                block_start,
                cov_end,
                rows,
                line_starts,
                end_bound,
                entries,
                collect,
            }
        };
        let Snapshot {
            block,
            block_start,
            cov_end,
            rows,
            line_starts,
            end_bound,
            entries,
            collect,
        } = snap;
        debug_assert!(rows > 0, "mapped block must cover at least one row");
        // Spilled chunks are reloaded under the write lock.
        let entries = match entries {
            Some(e) => e,
            None => runtime.posmap.write().fetch_block(block, &needed).entries,
        };
        let cached: Vec<Option<Arc<CachedColumn>>> = if self.flags.cache {
            let cache = runtime.cache.read();
            needed.iter().map(|&a| cache.get_shared(block, a)).collect()
        } else {
            vec![None; needed.len()]
        };

        let mut collector = collect.then(|| SegmentCollector::new(needed.clone()));
        // Cache columns are only (re)built for attributes the file must
        // supply; fully cached columns add no write-back work — warm
        // queries must not pay for the cache they benefit from.
        let mut cache_builders: Vec<Option<ColumnBuilder>> = (0..needed.len())
            .map(|i| {
                let complete = cached[i].as_ref().is_some_and(|c| c.is_complete());
                if self.flags.cache && !complete {
                    Some(ColumnBuilder::new(
                        block,
                        needed[i],
                        self.ctx.dtype(i),
                        rows,
                    ))
                } else {
                    None
                }
            })
            .collect();
        // Early rejection in the warm path: sound only when nothing is
        // being collected, cached, or sampled this block (same condition
        // as the cold passes, evaluated against this block's builders).
        let lean =
            !collect && self.stat_builders.is_empty() && cache_builders.iter().all(|b| b.is_none());
        // When every needed column is completely cached (or the query
        // needs no columns at all — COUNT(*) over an indexed region) and
        // no chunk is being collected, the raw file is not touched — the
        // paper's "avoid raw file access altogether" (§4.3).
        let all_cached = !collect
            && (needed.is_empty()
                || cached
                    .iter()
                    .all(|c| c.as_ref().is_some_and(|c| c.is_complete())));
        let mut row_buf: Vec<Value> = vec![Value::Null; needed.len()];
        let mut positions: Vec<u32> = vec![0; needed.len()];
        let mut line_buf: Vec<u8> = Vec::new();

        if self.window.is_none() && !all_cached {
            self.window = Some(SlidingWindow::open_with(&self.ctx.path, self.ctx.io)?);
        }

        for r in 0..rows {
            let line_start = line_starts[r];
            if !all_cached {
                let line_end = if r + 1 < rows {
                    line_starts[r + 1]
                } else {
                    end_bound
                };
                line_buf.clear();
                clock.start(r as u64);
                let w = held(self.window.as_mut(), "window opened above")?;
                let s = w.slice(line_start, (line_end - line_start) as usize)?;
                line_buf.extend_from_slice(s);
                clock.stop(&mut prof.io_ns);
                prof.io_bytes += line_end - line_start;
                while matches!(line_buf.last(), Some(b'\n') | Some(b'\r')) {
                    line_buf.pop();
                }
            }
            let line: &[u8] = &line_buf;
            clock.start(r as u64);

            // When collecting a new combination chunk, positions for all
            // needed attributes are resolved up front (the paper's
            // pre-computed temporary map); otherwise lazily.
            if collector.is_some() {
                for i in 0..needed.len() {
                    positions[i] =
                        resolve_position(&self.ctx, line, &needed, i, &entries[i], r, &mut metrics)
                            .map_err(|e| {
                                e.at_raw_location(
                                    &self.ctx.path,
                                    Some(block_start + r as u64),
                                    Some(line_start),
                                )
                            })?;
                }
                if let Some(c) = collector.as_mut() {
                    c.push_row(&positions);
                }
            }

            let row_id = block_start + r as u64;
            // Compiled-predicate screen: convert only the tested columns
            // (cache first, then map-assisted positions) and skip the
            // row's remaining WHERE/SELECT conversions on a miss.
            if let Some(pred) = self.ctx.pred.as_ref().filter(|_| lean) {
                let mut keep = true;
                for item in pred.items() {
                    let (v, _) = value_for(
                        &self.ctx,
                        line,
                        &needed,
                        item.local,
                        &entries,
                        &cached,
                        r,
                        None,
                        row_id,
                        line_start,
                        &mut metrics,
                    )?;
                    if !item.op.test_value(&v)? {
                        keep = false;
                        break;
                    }
                }
                if !keep {
                    metrics.rows_rejected_early += 1;
                    clock.stop(&mut prof.parse_ns);
                    continue;
                }
            }
            let ctx = &self.ctx;
            let stat_builders = &mut self.stat_builders;
            let qualifies = select_record(
                ctx,
                &mut row_buf,
                #[inline(always)]
                |local| {
                    let (v, from_cache) = value_for(
                        ctx,
                        line,
                        &needed,
                        local,
                        &entries,
                        &cached,
                        r,
                        collect.then_some(&positions),
                        row_id,
                        line_start,
                        &mut metrics,
                    )?;
                    if !from_cache {
                        if let Some(b) = cache_builders[local].as_mut() {
                            b.set(r, &v);
                        }
                        offer_stat(ctx, stat_builders, local, row_id, &v);
                    }
                    Ok(v)
                },
            )?;
            if qualifies {
                self.out.push_back(Row(row_buf.clone()));
                metrics.rows_emitted += 1;
            }
            clock.stop(&mut prof.parse_ns);
        }

        if let Some(c) = collector.filter(|c| c.rows() > 0) {
            let mut pm = runtime.posmap.write();
            for chunk in c.into_chunks(block_start, self.block_rows as usize) {
                pm.insert(chunk);
            }
        }
        if self.flags.cache {
            let builders: Vec<ColumnBuilder> = cache_builders
                .into_iter()
                .flatten()
                .filter(|b| b.filled() > 0)
                .collect();
            if !builders.is_empty() {
                let mut cache = runtime.cache.write();
                for b in builders {
                    cache.insert(b.build());
                }
            }
        }
        prof.parse_values = metrics.fields_parsed;
        self.add_profile(&prof);
        runtime.metrics.add(&metrics);
        self.next_row = cov_end;
        self.resume_byte = end_bound;
        Ok(())
    }

    fn finish_stats(&mut self) {
        if !self.flags.stats || self.stat_builders.is_empty() {
            return;
        }
        let row_count = self.runtime.posmap.read().eol().row_count();
        let mut stats = self.runtime.stats.lock();
        if let Some(n) = row_count {
            stats.set_row_count(n);
        }
        let hint = row_count.map(|n| n as f64);
        for (local, b) in self.stat_builders.drain(..) {
            let attr = self.ctx.projection[local] as u32;
            if !stats.has_column(attr) && b.offered() > 0 {
                stats.set_column(attr, b.finalize(hint));
            }
        }
    }

    fn pump(&mut self) -> Result<()> {
        if !self.prepared {
            self.prepare()?;
        }
        while self.out.is_empty() && !self.done {
            let (complete, row_count, indexed) = {
                let pm = self.runtime.posmap.read();
                (
                    pm.eol().is_complete(),
                    pm.eol().row_count(),
                    pm.eol().indexed_rows(),
                )
            };
            if complete && Some(self.next_row) == row_count {
                self.done = true;
                break;
            }
            if self.flags.eol && self.next_row < indexed {
                // A sequential reader opened earlier is stale once the
                // map covers our position; remember where it stood so a
                // later private resume starts at the right byte (the
                // mapped path keeps `resume_byte` current from there).
                if let Some(r) = self.reader.take() {
                    self.resume_byte = r.offset();
                }
                self.process_mapped_block()?;
            } else if self.threads > 1
                && self.reader.is_none()
                && (!self.flags.eol || indexed == self.next_row)
            {
                self.process_parallel_tail()?;
            } else {
                self.process_sequential_block()?;
            }
        }
        if self.done {
            self.finish_stats();
        }
        Ok(())
    }
}

impl Operator for InSituScanOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(r) = self.out.pop_front() {
                return Ok(Some(r));
            }
            if self.done {
                return Ok(None);
            }
            self.pump()?;
            if self.out.is_empty() && self.done {
                return Ok(None);
            }
        }
    }

    /// Vectorized pull: hand out whatever qualifying rows the last block
    /// pump produced, up to `max_rows`, as one column-major batch. Work
    /// granularity is unchanged — a pump still tokenizes exactly one
    /// positional-map block (or staged tail) like the row path, so scan
    /// metrics and auxiliary-structure contents stay bit-identical; only
    /// the per-row virtual-call/`Option` shuffle between operators is
    /// amortized.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let max = max_rows.max(1);
        loop {
            if !self.out.is_empty() {
                let take = self.out.len().min(max);
                let rows: Vec<Row> = self.out.drain(..take).collect();
                return Ok(Some(ValueBatch::from_rows(rows)));
            }
            if self.done {
                return Ok(None);
            }
            self.pump()?;
            if self.out.is_empty() && self.done {
                return Ok(None);
            }
        }
    }
}

// ----- the cold-pass kernel ----------------------------------------------

/// Everything one kernel call produced from a run of consecutive records.
/// Chunk workers do not know global row ids while they run; the merge
/// supplies them run by run.
struct ChunkScan {
    /// Absolute line-start offsets, in order.
    line_starts: Vec<u64>,
    /// Byte offset one past the run's last line (frontier contribution).
    end: u64,
    /// Whether the reader ran out of lines (end of file or chunk range)
    /// rather than stopping at `max_rows`.
    eof: bool,
    /// Qualifying rows, in order.
    emitted: Vec<Row>,
    /// Staged positional-map rows (attrs `0..=max_attr`).
    posmap: Option<SegmentCollector>,
    /// Staged cache values (one column per projected attribute).
    cache: Option<ChunkStage>,
    /// Sampled values per stat builder (parallel to the op's
    /// `stat_builders`).
    stat_samples: Vec<Vec<Value>>,
    /// Work done by this run.
    metrics: ScanMetrics,
    /// Phase timings/volumes accumulated by this run.
    profile: PhaseProfile,
}

/// The cold-pass record loop: read up to `max_rows` records from
/// `reader` and tokenize, screen, parse, filter and stage each into
/// private staging — positional-map rows and cache values as `staging`
/// asks, statistics samples for `stat_locals`. Touches no shared state,
/// so it runs on the calling thread (the sequential pass, bounded to the
/// rest of one positional-map block) or on a chunk worker (one
/// line-aligned byte range). `first_row` is the global row id of the
/// first record when the caller knows it: errors then name the row and
/// statistics sample by global row id. Chunk workers pass `None` and
/// sample by run-local row.
fn scan_records(
    ctx: &Ctx,
    reader: &mut LineReader,
    max_rows: u64,
    first_row: Option<u64>,
    staging: AuxFlags,
    stat_locals: &[usize],
) -> Result<ChunkScan> {
    let max_attr = ctx.projection.last().copied().unwrap_or(0);
    let mut out = ChunkScan {
        line_starts: Vec::new(),
        end: reader.offset(),
        eof: false,
        emitted: Vec::new(),
        posmap: (staging.posmap && !ctx.projection.is_empty())
            .then(|| SegmentCollector::new((0..=max_attr as u32).collect())),
        cache: staging.cache.then(|| {
            ChunkStage::new(
                ctx.projection
                    .iter()
                    .map(|&a| (a as u32, ctx.schema.field(a).dtype))
                    .collect(),
            )
        }),
        stat_samples: vec![Vec::new(); stat_locals.len()],
        metrics: ScanMetrics::default(),
        profile: PhaseProfile::default(),
    };
    let mut clock = SampledClock::default();
    let mut line = Vec::new();
    let mut starts: Vec<u32> = Vec::with_capacity(max_attr + 1);
    let mut row_buf: Vec<Value> = vec![Value::Null; ctx.projection.len()];
    // Early rejection is only sound when this run stages no auxiliary
    // structure: map collection and cache staging need every row's full
    // attribute frontier, statistics need every row's WHERE values.
    let lean = out.posmap.is_none() && out.cache.is_none() && stat_locals.is_empty();
    let base = first_row.unwrap_or(0);
    let mut local_row: u64 = 0;
    while local_row < max_rows {
        let row_id = base + local_row;
        let at_row = first_row.map(|_| row_id);
        clock.start(row_id);
        let fetched = reader.next_line(&mut line)?;
        clock.stop(&mut out.profile.io_ns);
        let Some(line_start) = fetched else {
            out.eof = true;
            break;
        };
        let locate = |e: NoDbError| e.at_raw_location(&ctx.path, at_row, Some(line_start));
        let short = |found: usize, need: usize| {
            locate(NoDbError::parse(format!(
                "record has {found} fields, need at least {need}"
            )))
        };
        out.line_starts.push(line_start);
        out.metrics.bytes_tokenized += line.len() as u64 + 1;
        if ctx.projection.is_empty() {
            // Pure row counting (e.g. COUNT(*)): nothing to tokenize.
            out.emitted.push(Row::new());
            out.metrics.rows_emitted += 1;
            local_row += 1;
            continue;
        }
        starts.clear();
        // Pushdown fast path: tokenize only up to the predicate frontier,
        // test, and skip the rest of the record on a miss.
        let mut prefix_found = None;
        if let Some(pred) = ctx.pred.as_ref().filter(|_| lean) {
            clock.start(row_id);
            let pfound = ctx
                .format
                .positions_upto(&line, pred.max_attr(), &mut starts)
                .map_err(locate)?;
            clock.stop(&mut out.profile.tokenize_ns);
            if pfound < pred.max_attr() + 1 {
                return Err(short(pfound, pred.max_attr() + 1));
            }
            out.metrics.fields_tokenized += pfound as u64;
            clock.start(row_id);
            let metrics = &mut out.metrics;
            let keep = pred.matches(&*ctx.format, &line, &starts, &mut |local, start| {
                parse_value(ctx, &line, start, local, at_row, line_start, metrics)
            })?;
            clock.stop(&mut out.profile.parse_ns);
            if !keep {
                out.metrics.rows_rejected_early += 1;
                out.metrics.fields_skipped_early += (max_attr - pred.max_attr()) as u64;
                local_row += 1;
                continue;
            }
            prefix_found = Some(pfound);
        }
        clock.start(row_id);
        let found = match prefix_found {
            // The row survived the screen: grow tokenization from the
            // predicate frontier to the projection frontier.
            Some(pfound) => {
                let total = ctx
                    .format
                    .positions_extend(&line, max_attr, &mut starts)
                    .map_err(locate)?;
                out.metrics.fields_tokenized += total.saturating_sub(pfound) as u64;
                total
            }
            None => {
                let found = ctx
                    .format
                    .positions_upto(&line, max_attr, &mut starts)
                    .map_err(locate)?;
                out.metrics.fields_tokenized += found as u64;
                found
            }
        };
        clock.stop(&mut out.profile.tokenize_ns);
        if found < max_attr + 1 {
            return Err(short(found, max_attr + 1));
        }
        // Keep every position tokenized along the way (§4.2, "all
        // positions from 1 to 15 may be kept").
        if let Some(c) = out.posmap.as_mut() {
            c.push_row(&starts);
        }

        clock.start(row_id);
        let (cache, samples) = (&mut out.cache, &mut out.stat_samples);
        let metrics = &mut out.metrics;
        let qualifies = select_record(
            ctx,
            &mut row_buf,
            #[inline(always)]
            |local| {
                let start = starts[ctx.projection[local]];
                let v = parse_value(ctx, &line, start, local, at_row, line_start, metrics)?;
                if let Some(stage) = cache.as_mut() {
                    // CAST: a run covers < 2^32 rows (u32 row ids).
                    stage.push(local, local_row as u32, v.clone());
                }
                if row_id.is_multiple_of(ctx.sample_stride) {
                    for (i, l) in stat_locals.iter().enumerate() {
                        if *l == local {
                            samples[i].push(v.clone());
                        }
                    }
                }
                Ok(v)
            },
        )?;
        if qualifies {
            out.emitted.push(Row(row_buf.clone()));
            out.metrics.rows_emitted += 1;
        }
        clock.stop(&mut out.profile.parse_ns);
        local_row += 1;
    }
    out.end = reader.offset();
    // Sequential tokenization reads exactly the bytes it tokenizes.
    out.profile.io_bytes = out.metrics.bytes_tokenized;
    out.profile.tokenize_bytes = out.metrics.bytes_tokenized;
    out.profile.parse_values = out.metrics.fields_parsed;
    Ok(out)
}

/// Selective parsing and tuple formation for one record (§4.1), shared by
/// the cold kernel and the mapped path: convert the WHERE attributes,
/// evaluate every conjunct, and only for a qualifying record convert the
/// SELECT attributes. `value` supplies (and stages) one projected
/// attribute's value — a raw parse at its tokenized start, or a
/// cache/map lookup. Returns whether the record qualified; `row_buf` then
/// holds the projected tuple. Callers mark `value` `#[inline(always)]`:
/// it runs once per converted field, in both loops of this body.
fn select_record(
    ctx: &Ctx,
    row_buf: &mut Vec<Value>,
    mut value: impl FnMut(usize) -> Result<Value>,
) -> Result<bool> {
    for v in row_buf.iter_mut() {
        *v = Value::Null;
    }
    for &local in &ctx.where_locals {
        row_buf[local] = value(local)?;
    }
    // Evaluate every conjunct against the buffer itself (moved into a
    // `Row` shell and back) — no per-conjunct clone.
    let probe = Row(std::mem::take(row_buf));
    let mut ok = true;
    for f in &ctx.filters {
        if !eval_predicate(f, &probe)? {
            ok = false;
            break;
        }
    }
    *row_buf = probe.0;
    if ok {
        for &local in &ctx.select_locals {
            row_buf[local] = value(local)?;
        }
    }
    Ok(ok)
}

// ----- free helpers (disjoint borrows of scan state) ---------------------

/// Convert one attribute value via the record format, decorating parse
/// failures with the column name and the raw-file location (`row_id` is
/// `None` inside chunk workers, which do not know global row ids).
fn parse_value(
    ctx: &Ctx,
    line: &[u8],
    start: u32,
    local: usize,
    row_id: Option<u64>,
    line_start: u64,
    metrics: &mut ScanMetrics,
) -> Result<Value> {
    metrics.fields_parsed += 1;
    ctx.format
        .parse_at(line, start, ctx.dtype(local))
        .map_err(|e| {
            let e = match e {
                NoDbError::Parse(m) => NoDbError::parse(format!(
                    "column `{}`: {m}",
                    ctx.schema.field(ctx.projection[local]).name
                )),
                other => other,
            };
            e.at_raw_location(&ctx.path, row_id, Some(line_start))
        })
}

fn offer_stat(
    ctx: &Ctx,
    builders: &mut [(usize, StatsBuilder)],
    local: usize,
    row_id: u64,
    v: &Value,
) {
    if builders.is_empty() || !row_id.is_multiple_of(ctx.sample_stride) {
        return;
    }
    for (l, b) in builders.iter_mut() {
        if *l == local {
            b.offer(v);
        }
    }
}

/// Fetch one attribute's value for a row: cache first, then the raw file
/// via the best positional information. The boolean reports whether the
/// cache supplied it (so callers skip write-back and stats for values
/// that never touched the file).
#[allow(clippy::too_many_arguments)]
fn value_for(
    ctx: &Ctx,
    line: &[u8],
    needed: &[u32],
    local: usize,
    entries: &[AttrPositions],
    cached: &[Option<Arc<CachedColumn>>],
    r: usize,
    precomputed: Option<&Vec<u32>>,
    row_id: u64,
    line_start: u64,
    metrics: &mut ScanMetrics,
) -> Result<(Value, bool)> {
    if let Some(col) = &cached[local] {
        if let Some(v) = col.get(r) {
            metrics.fields_from_cache += 1;
            return Ok((v, true));
        }
    }
    let start = match precomputed {
        Some(p) => p[local],
        None => resolve_position(ctx, line, needed, local, &entries[local], r, metrics)
            .map_err(|e| e.at_raw_location(&ctx.path, Some(row_id), Some(line_start)))?,
    };
    parse_value(ctx, line, start, local, Some(row_id), line_start, metrics).map(|v| (v, false))
}

/// Locate the start of attribute `needed[i]` on a line using the best
/// positional information, counting the work class in `metrics`. Errors
/// carry no location; callers decorate with file/row/byte context.
fn resolve_position(
    ctx: &Ctx,
    line: &[u8],
    needed: &[u32],
    i: usize,
    entry: &AttrPositions,
    r: usize,
    metrics: &mut ScanMetrics,
) -> Result<u32> {
    let attr = needed[i] as usize;
    match entry {
        // Position arrays may cover fewer rows than the block after an
        // append (§4.5); rows past the indexed extent fall back to full
        // tokenization from the line start.
        AttrPositions::Exact(col) => match col.get(r) {
            Some(&p) => {
                metrics.fields_via_map += 1;
                Ok(p)
            }
            None => tokenize_to(ctx, line, attr, metrics),
        },
        AttrPositions::Anchor {
            anchor_attr,
            positions,
        } => {
            let Some(&anchor) = positions.get(r) else {
                return tokenize_to(ctx, line, attr, metrics);
            };
            metrics.fields_via_anchor += 1;
            ctx.format
                .advance(line, anchor, *anchor_attr as usize, attr)
        }
        AttrPositions::None => tokenize_to(ctx, line, attr, metrics),
    }
}

/// Tokenize from the line start up to `attr` (the no-positional-help
/// path).
fn tokenize_to(ctx: &Ctx, line: &[u8], attr: usize, metrics: &mut ScanMetrics) -> Result<u32> {
    let mut starts = Vec::with_capacity(attr + 1);
    let found = ctx.format.positions_upto(line, attr, &mut starts)?;
    metrics.fields_tokenized += found as u64;
    if found < attr + 1 {
        return Err(NoDbError::parse(format!(
            "record has {found} fields, need at least {}",
            attr + 1
        )));
    }
    Ok(starts[attr])
}
