#include "ampi/ampi.h"

#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "migrate/iso_thread.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::ampi {

namespace {

// ---- Wire formats ----------------------------------------------------------

struct P2P {
  std::int32_t src = -1, dest = -1, tag = 0;
  std::vector<char> bytes;
  void pup(pup::Er& p) { p | src | dest | tag | bytes; }
};

struct Unexpected {
  std::int32_t src = -1, tag = 0;
  std::vector<char> bytes;
  void pup(pup::Er& p) { p | src | tag | bytes; }
};

struct MoveMsg {
  std::int32_t rank = -1;
  void pup(pup::Er& p) { p | rank; }
};

/// The runtime bookkeeping that must follow a rank (buffered unexpected
/// messages and the rank→PE directory for the destination). A rank
/// migration ships this header followed by the rank thread's image wire
/// bytes, which the destination decodes in place.
struct RankHeader {
  std::int32_t rank = -1;
  std::uint64_t coll_seq = 0;  ///< collective tag counter must keep counting
  std::vector<int> mapping;
  std::vector<Unexpected> unexpected;
  void pup(pup::Er& p) { p | rank | coll_seq | mapping | unexpected; }
};

// ---- Runtime state ----------------------------------------------------------

struct PostedRecv {
  void* buf = nullptr;
  std::size_t max_bytes = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  Request req;
};

struct RankState {
  int rank = -1;
  migrate::IsoThread* thread = nullptr;
  std::deque<Unexpected> unexpected;
  std::deque<PostedRecv> posted;
  ult::Thread* blocked = nullptr;  ///< thread parked in block_until
  std::uint64_t coll_seq = 0;      ///< collective-call sequence number
  int pending_dest = -1;           ///< set while a directed move is queued
};

struct PeState {
  std::unordered_map<int, std::unique_ptr<RankState>> ranks;
  std::unordered_map<const ult::Thread*, RankState*> by_thread;
  std::vector<int> rank_to_pe;  ///< this PE's view of the rank directory
  /// Messages for ranks this directory says live here but have not yet
  /// arrived (migration transit window).
  std::unordered_map<int, std::vector<P2P>> held;
  ult::Thread* main_thread = nullptr;
  bool all_done = false;
};

struct GlobalState {
  Options options;
  std::function<void()> program;
  std::atomic<int> ranks_done{0};
};

GlobalState* g_ampi = nullptr;
thread_local PeState* t_state = nullptr;

converse::HandlerId h_p2p, h_move, h_rank_arrive, h_all_done;

// ---- Matching ----------------------------------------------------------------

bool source_matches(int want, int got) {
  return want == kAnySource || want == got;
}
bool tag_matches(int want, int got) { return want == kAnyTag || got == want; }

void complete_recv(PostedRecv& pr, int src, int tag, std::vector<char> bytes) {
  MFC_CHECK_MSG(bytes.size() <= pr.max_bytes,
                "ampi: message longer than receive buffer");
  std::memcpy(pr.buf, bytes.data(), bytes.size());
  pr.req->status = Status{src, tag, bytes.size()};
  pr.req->done = true;
}

void deliver_local(RankState& rs, P2P&& msg) {
  for (auto it = rs.posted.begin(); it != rs.posted.end(); ++it) {
    if (source_matches(it->src, msg.src) && tag_matches(it->tag, msg.tag)) {
      complete_recv(*it, msg.src, msg.tag, std::move(msg.bytes));
      rs.posted.erase(it);
      if (rs.blocked != nullptr) {
        ult::Thread* t = rs.blocked;
        rs.blocked = nullptr;
        converse::ready_thread(t);
      }
      return;
    }
  }
  rs.unexpected.push_back(Unexpected{msg.src, msg.tag, std::move(msg.bytes)});
}

RankState& cur() {
  MFC_CHECK_MSG(t_state != nullptr, "AMPI call outside the runtime");
  const ult::Thread* running = converse::pe_scheduler().running();
  auto it = t_state->by_thread.find(running);
  MFC_CHECK_MSG(it != t_state->by_thread.end(),
                "AMPI call from a non-rank thread");
  return *it->second;
}

/// Parks the calling rank until pred() holds; handlers wake it on every
/// completion, and it re-checks.
template <typename Pred>
void block_until(RankState& rs, Pred pred) {
  while (!pred()) {
    MFC_CHECK_MSG(rs.blocked == nullptr, "rank blocked twice");
    rs.blocked = converse::pe_scheduler().running();
    converse::pe_scheduler().suspend();
  }
}

// ---- Handlers ----------------------------------------------------------------

void handle_p2p(converse::Message&& m) {
  PeState& ps = *t_state;
  auto msg = m.as<P2P>();
  auto it = ps.ranks.find(msg.dest);
  if (it != ps.ranks.end()) {
    deliver_local(*it->second, std::move(msg));
    return;
  }
  const int believed = ps.rank_to_pe[static_cast<std::size_t>(msg.dest)];
  if (believed == converse::my_pe()) {
    // The rank is on its way here; hold the message for its arrival.
    ps.held[msg.dest].push_back(std::move(msg));
  } else {
    converse::send(believed, h_p2p, m.payload.take());
  }
}

void handle_move(converse::Message&& m) {
  // Runs on the source PE after the rank suspended itself inside
  // migrate()/migrate_to(): pack thread + runtime state, ship, dismantle.
  PeState& ps = *t_state;
  const auto req = m.as<MoveMsg>();
  auto it = ps.ranks.find(req.rank);
  MFC_CHECK(it != ps.ranks.end());
  RankState& rs = *it->second;
  MFC_CHECK_MSG(rs.posted.empty(),
                "ampi: outstanding irecv across migrate() is unsupported");
  const int dest = rs.pending_dest;
  MFC_CHECK(dest >= 0);

  RankHeader head;
  head.rank = rs.rank;
  head.coll_seq = rs.coll_seq;
  head.mapping = ps.rank_to_pe;
  head.unexpected.assign(rs.unexpected.begin(), rs.unexpected.end());
  const std::vector<char> head_bytes = pup::to_bytes(head);

  // Scatter-gather ship, as the storm does: the header, then the thread's
  // manifest spans read straight from its slots. The destructive pack
  // epilogue runs once the bytes are consumed, before any delivery.
  migrate::IsoThread* thread = rs.thread;
  const migrate::ImageManifest man = thread->pack_manifest(/*count=*/true);
  std::vector<char> scratch;
  std::vector<converse::SendSpan> spans{{head_bytes.data(), head_bytes.size()}};
  for (const migrate::IoRun& r : man.wire_spans(&scratch)) {
    spans.push_back({r.data, r.len});
  }

  ps.by_thread.erase(thread);
  ps.ranks.erase(it);

  converse::send_spans(dest, h_rank_arrive, spans.data(), spans.size(),
                       [thread] {
                         thread->complete_pack();
                         delete thread;
                       });
}

void handle_rank_arrive(converse::Message&& m) {
  PeState& ps = *t_state;
  RankHeader head;
  pup::MemUnpacker u(m.payload.data(), m.payload.size());
  u | head;
  const std::size_t off = u.consumed(m.payload.data());

  migrate::ImageManifest image;
  MFC_CHECK_MSG(migrate::ImageManifest::decode(m.payload.data() + off,
                                               m.payload.size() - off,
                                               &image) ==
                    migrate::CodecError::kOk,
                "ampi: undecodable rank image");
  auto* thread = static_cast<migrate::IsoThread*>(
      migrate::MigratableThread::unpack(image, converse::my_pe()));
  auto rs = std::make_unique<RankState>();
  rs->rank = head.rank;
  rs->coll_seq = head.coll_seq;
  rs->thread = thread;
  rs->unexpected.assign(head.unexpected.begin(), head.unexpected.end());
  // Adopt the (newer) directory that traveled with the rank — this is how a
  // previously rank-less PE learns the mapping.
  ps.rank_to_pe = std::move(head.mapping);

  RankState* raw = rs.get();
  ps.by_thread[thread] = raw;
  ps.ranks[head.rank] = std::move(rs);

  // Deliver anything that arrived ahead of the rank.
  if (auto held = ps.held.find(head.rank); held != ps.held.end()) {
    for (auto& msg : held->second) deliver_local(*raw, std::move(msg));
    ps.held.erase(held);
  }
  converse::ready_thread(thread);
}

void handle_all_done(converse::Message&&) {
  PeState& ps = *t_state;
  ps.all_done = true;
  if (ps.main_thread != nullptr &&
      ps.main_thread->state() == ult::State::kSuspended) {
    converse::ready_thread(ps.main_thread);
  }
}

void register_ampi_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_p2p = converse::register_handler(handle_p2p);
    h_move = converse::register_handler(handle_move);
    h_rank_arrive = converse::register_handler(handle_rank_arrive);
    h_all_done = converse::register_handler(handle_all_done);
  });
}

// ---- Internal collective plumbing ---------------------------------------------

/// Internal tags live in the negative space below kAnyTag so they can never
/// collide with user tags (>= 0). Collectives are called in the same order
/// by every rank (an MPI requirement), so the per-rank sequence numbers
/// agree and successive collectives cannot cross-match.
int internal_tag(std::uint64_t seq, int opcode) {
  return -static_cast<int>(1000 + (seq % 100000000ULL) * 8 +
                           static_cast<std::uint64_t>(opcode));
}

void combine(Op op, Dtype dt, void* acc, const void* in, std::size_t count) {
  auto fold = [&](auto* a, const auto* b) {
    for (std::size_t i = 0; i < count; ++i) {
      switch (op) {
        case Op::kSum: a[i] = a[i] + b[i]; break;
        case Op::kMax: a[i] = a[i] > b[i] ? a[i] : b[i]; break;
        case Op::kMin: a[i] = a[i] < b[i] ? a[i] : b[i]; break;
      }
    }
  };
  switch (dt) {
    case Dtype::kByte:
      fold(static_cast<char*>(acc), static_cast<const char*>(in));
      break;
    case Dtype::kInt:
      fold(static_cast<int*>(acc), static_cast<const int*>(in));
      break;
    case Dtype::kLong:
      fold(static_cast<long*>(acc), static_cast<const long*>(in));
      break;
    case Dtype::kUint64:
      fold(static_cast<std::uint64_t*>(acc),
           static_cast<const std::uint64_t*>(in));
      break;
    case Dtype::kDouble:
      fold(static_cast<double*>(acc), static_cast<const double*>(in));
      break;
  }
}

/// Shared move phase: directory update, pre/post barriers, and the
/// pack-and-ship detour for ranks that change PEs.
int do_migration(const std::vector<int>& new_mapping) {
  RankState& rs = cur();
  PeState& ps = *t_state;
  // All ranks are inside the collective; no user messages will be sent
  // until it completes, so the directory can be swapped safely.
  const std::vector<int> old_mapping = ps.rank_to_pe;
  int moved = 0;
  for (std::size_t r = 0; r < new_mapping.size(); ++r) {
    if (new_mapping[r] != old_mapping[r]) ++moved;
  }
  ps.rank_to_pe = new_mapping;

  const int dest = new_mapping[static_cast<std::size_t>(rs.rank)];
  if (dest != converse::my_pe()) {
    rs.pending_dest = dest;
    MoveMsg req{rs.rank};
    converse::send_value(converse::my_pe(), h_move, req);
    converse::pe_scheduler().suspend();
    // ---- resumed on the destination PE ----
    cur().pending_dest = -1;
  }
  barrier();
  return moved;
}

}  // namespace

std::size_t dtype_size(Dtype dt) {
  switch (dt) {
    case Dtype::kByte: return 1;
    case Dtype::kInt: return sizeof(int);
    case Dtype::kLong: return sizeof(long);
    case Dtype::kUint64: return sizeof(std::uint64_t);
    case Dtype::kDouble: return sizeof(double);
  }
  return 1;
}

void run(const Options& options, std::function<void()> program) {
  MFC_CHECK_MSG(g_ampi == nullptr, "ampi::run is not reentrant");
  MFC_CHECK(options.nranks >= 1);
  register_ampi_handlers();

  GlobalState global;
  global.options = options;
  if (!global.options.lb_strategy) global.options.lb_strategy = lb::greedy_lb;
  global.program = std::move(program);
  g_ampi = &global;

  converse::Machine::Config cfg;
  cfg.npes = options.npes;
  cfg.iso_slots_per_pe = options.iso_slots_per_pe;
  cfg.iso_slot_bytes = options.iso_slot_bytes;

  converse::Machine::run(cfg, [](int pe) {
    PeState state;
    t_state = &state;
    const int nranks = g_ampi->options.nranks;
    const int npes = converse::num_pes();
    state.rank_to_pe.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) state.rank_to_pe[static_cast<std::size_t>(r)] = r % npes;

    for (int r = 0; r < nranks; ++r) {
      if (r % npes != pe) continue;
      auto rs = std::make_unique<RankState>();
      rs->rank = r;
      rs->thread = new migrate::IsoThread(
          [] {
            g_ampi->program();
            if (g_ampi->ranks_done.fetch_add(1) + 1 ==
                g_ampi->options.nranks) {
              converse::broadcast(h_all_done, {});
            }
          },
          pe, g_ampi->options.stack_bytes);
      RankState* raw = rs.get();
      state.by_thread[rs->thread] = raw;
      state.ranks[r] = std::move(rs);
    }

    // Rendezvous before any rank runs: a rank's first send must find every
    // PE's state and rank registry in place.
    converse::barrier();
    for (auto& [_, rs] : state.ranks) converse::ready_thread(rs->thread);

    state.main_thread = converse::pe_scheduler().running();
    while (!state.all_done) converse::pe_scheduler().suspend();

    // Tear down whatever ranks ended their lives on this PE.
    for (auto& [_, rs] : state.ranks) delete rs->thread;
    t_state = nullptr;
  });

  g_ampi = nullptr;
}

int rank() { return cur().rank; }

int size() { return g_ampi->options.nranks; }

int my_pe() {
  cur();  // validate context
  return converse::my_pe();
}

double wtime() { return wall_time(); }

void send(const void* buf, std::size_t count, Dtype dt, int dest, int tag) {
  RankState& rs = cur();
  MFC_CHECK(dest >= 0 && dest < size());
  MFC_CHECK_MSG(tag >= 0, "user tags must be non-negative");
  const std::size_t bytes = count * dtype_size(dt);
  P2P msg;
  msg.src = rs.rank;
  msg.dest = dest;
  msg.tag = tag;
  msg.bytes.assign(static_cast<const char*>(buf),
                   static_cast<const char*>(buf) + bytes);
  const int pe = t_state->rank_to_pe[static_cast<std::size_t>(dest)];
  converse::send_value(pe, h_p2p, msg);
}

namespace {

/// Internal send that allows negative (collective) tags.
void send_internal(RankState& rs, const void* buf, std::size_t bytes,
                   int dest, int tag) {
  P2P msg;
  msg.src = rs.rank;
  msg.dest = dest;
  msg.tag = tag;
  msg.bytes.assign(static_cast<const char*>(buf),
                   static_cast<const char*>(buf) + bytes);
  const int pe = t_state->rank_to_pe[static_cast<std::size_t>(dest)];
  converse::send_value(pe, h_p2p, msg);
}

Request irecv_impl(RankState& rs, void* buf, std::size_t max_bytes, int source,
                   int tag) {
  // Unexpected-queue scan first (MPI arrival-order matching).
  for (auto it = rs.unexpected.begin(); it != rs.unexpected.end(); ++it) {
    if (source_matches(source, it->src) && tag_matches(tag, it->tag)) {
      auto req = std::make_shared<ReqState>();
      MFC_CHECK_MSG(it->bytes.size() <= max_bytes,
                    "ampi: message longer than receive buffer");
      std::memcpy(buf, it->bytes.data(), it->bytes.size());
      req->status = Status{it->src, it->tag, it->bytes.size()};
      req->done = true;
      rs.unexpected.erase(it);
      return req;
    }
  }
  auto req = std::make_shared<ReqState>();
  rs.posted.push_back(PostedRecv{buf, max_bytes, source, tag, req});
  return req;
}

void recv_internal(RankState& rs, void* buf, std::size_t max_bytes, int source,
                   int tag, Status* status) {
  Request req = irecv_impl(rs, buf, max_bytes, source, tag);
  block_until(rs, [&] { return req->done; });
  if (status != nullptr) *status = req->status;
}

}  // namespace

void recv(void* buf, std::size_t count, Dtype dt, int source, int tag,
          Status* status) {
  recv_internal(cur(), buf, count * dtype_size(dt), source, tag, status);
}

Request isend(const void* buf, std::size_t count, Dtype dt, int dest,
              int tag) {
  // Eager buffered send: complete immediately (the payload is copied).
  send(buf, count, dt, dest, tag);
  auto req = std::make_shared<ReqState>();
  req->done = true;
  return req;
}

Request irecv(void* buf, std::size_t count, Dtype dt, int source, int tag) {
  return irecv_impl(cur(), buf, count * dtype_size(dt), source, tag);
}

void wait(const Request& request, Status* status) {
  RankState& rs = cur();
  block_until(rs, [&] { return request->done; });
  if (status != nullptr) *status = request->status;
}

void wait_all(std::vector<Request>& requests) {
  RankState& rs = cur();
  block_until(rs, [&] {
    for (const auto& r : requests) {
      if (!r->done) return false;
    }
    return true;
  });
}

bool test(const Request& request, Status* status) {
  cur();
  if (request->done && status != nullptr) *status = request->status;
  return request->done;
}

void sendrecv(const void* sendbuf, std::size_t sendcount, Dtype dt, int dest,
              int sendtag, void* recvbuf, std::size_t recvcount, int source,
              int recvtag, Status* status) {
  RankState& rs = cur();
  Request rreq =
      irecv_impl(rs, recvbuf, recvcount * dtype_size(dt), source, recvtag);
  send(sendbuf, sendcount, dt, dest, sendtag);
  block_until(rs, [&] { return rreq->done; });
  if (status != nullptr) *status = rreq->status;
}

void barrier() {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 0);
  const int n = size();
  char token = 0;
  if (rs.rank == 0) {
    for (int i = 1; i < n; ++i) {
      recv_internal(rs, &token, 1, kAnySource, tag, nullptr);
    }
    for (int i = 1; i < n; ++i) send_internal(rs, &token, 1, i, tag);
  } else {
    send_internal(rs, &token, 1, 0, tag);
    recv_internal(rs, &token, 1, 0, tag, nullptr);
  }
}

void bcast(void* buf, std::size_t count, Dtype dt, int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 1);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send_internal(rs, buf, bytes, r, tag);
    }
  } else {
    recv_internal(rs, buf, bytes, root, tag, nullptr);
  }
}

void reduce(const void* sendbuf, void* recvbuf, std::size_t count, Dtype dt,
            Op op, int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 2);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    std::memcpy(recvbuf, sendbuf, bytes);
    std::vector<char> scratch(bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_internal(rs, scratch.data(), bytes, r, tag, nullptr);
      combine(op, dt, recvbuf, scratch.data(), count);
    }
  } else {
    send_internal(rs, sendbuf, bytes, root, tag);
  }
}

void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               Dtype dt, Op op) {
  reduce(sendbuf, recvbuf, count, dt, op, 0);
  bcast(recvbuf, count, dt, 0);
}

void gather(const void* sendbuf, std::size_t count, Dtype dt, void* recvbuf,
            int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 3);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    auto* out = static_cast<char*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes, sendbuf, bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_internal(rs, out + static_cast<std::size_t>(r) * bytes, bytes, r,
                    tag, nullptr);
    }
  } else {
    send_internal(rs, sendbuf, bytes, root, tag);
  }
}

void allgather(const void* sendbuf, std::size_t count, Dtype dt,
               void* recvbuf) {
  gather(sendbuf, count, dt, recvbuf, 0);
  bcast(recvbuf, count * static_cast<std::size_t>(size()), dt, 0);
}

void scatter(const void* sendbuf, std::size_t count, Dtype dt, void* recvbuf,
             int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 4);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    const auto* in = static_cast<const char*>(sendbuf);
    std::memcpy(recvbuf, in + static_cast<std::size_t>(root) * bytes, bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send_internal(rs, in + static_cast<std::size_t>(r) * bytes, bytes, r,
                    tag);
    }
  } else {
    recv_internal(rs, recvbuf, bytes, root, tag, nullptr);
  }
}

void alltoall(const void* sendbuf, std::size_t count, Dtype dt,
              void* recvbuf) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 5);
  const std::size_t bytes = count * dtype_size(dt);
  const auto* in = static_cast<const char*>(sendbuf);
  auto* out = static_cast<char*>(recvbuf);
  const int n = size();
  // Post all receives, send all blocks, then drain — deadlock-free and
  // exercises the matching engine with n-1 concurrent requests per rank.
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (r == rs.rank) continue;
    reqs.push_back(irecv_impl(rs, out + static_cast<std::size_t>(r) * bytes,
                              bytes, r, tag));
  }
  std::memcpy(out + static_cast<std::size_t>(rs.rank) * bytes,
              in + static_cast<std::size_t>(rs.rank) * bytes, bytes);
  for (int r = 0; r < n; ++r) {
    if (r == rs.rank) continue;
    send_internal(rs, in + static_cast<std::size_t>(r) * bytes, bytes, r, tag);
  }
  block_until(rs, [&] {
    for (const auto& q : reqs) {
      if (!q->done) return false;
    }
    return true;
  });
}

void yield() {
  cur();  // validate rank context
  converse::pe_scheduler().yield();
}

double my_load() { return cur().thread->accumulated_load(); }

std::vector<int> rank_placement() {
  cur();
  return t_state->rank_to_pe;
}

int migrate() {
  RankState& rs = cur();
  const int n = size();
  const int npes = converse::num_pes();

  // Gather per-rank loads (wall-while-scheduled, the paper's measurement)
  // accumulated since the last balancing step.
  double my_load = rs.thread->accumulated_load();
  std::vector<double> loads(static_cast<std::size_t>(n), 0.0);
  gather(&my_load, 1, Dtype::kDouble, loads.data(), 0);

  std::vector<int> mapping(static_cast<std::size_t>(n), 0);
  if (rs.rank == 0) {
    mapping = g_ampi->options.lb_strategy(loads, t_state->rank_to_pe, npes);
  }
  bcast(mapping.data(), static_cast<std::size_t>(n), Dtype::kInt, 0);

  barrier();  // everyone has the mapping; no user traffic beyond this point
  cur().thread->reset_load();
  return do_migration(mapping);
}

void migrate_to(int dest_pe) {
  RankState& rs = cur();
  MFC_CHECK(dest_pe >= 0 && dest_pe < converse::num_pes());
  const int n = size();
  // Collect everyone's destination so all PEs learn the same new mapping.
  std::vector<int> mapping(static_cast<std::size_t>(n), 0);
  allgather(&dest_pe, 1, Dtype::kInt, mapping.data());
  (void)rs;
  barrier();
  do_migration(mapping);
}

void evacuate(int failing_pe) {
  RankState& rs = cur();
  const int npes = converse::num_pes();
  MFC_CHECK(failing_pe >= 0 && failing_pe < npes);
  MFC_CHECK_MSG(npes > 1, "cannot evacuate the only PE");
  // Deterministic replacement: displaced rank k (k-th resident of the
  // failing PE, by rank order) moves to the k-th PE of the survivors,
  // round-robin. Every rank computes the same mapping locally.
  const std::vector<int> current = t_state->rank_to_pe;
  std::vector<int> mapping = current;
  int displaced = 0;
  for (std::size_t r = 0; r < mapping.size(); ++r) {
    if (mapping[r] != failing_pe) continue;
    int slot = displaced++ % (npes - 1);
    if (slot >= failing_pe) ++slot;  // skip the failing PE
    mapping[r] = slot;
  }
  (void)rs;
  barrier();  // everyone computed the mapping from the same directory
  do_migration(mapping);
}

}  // namespace mfc::ampi
