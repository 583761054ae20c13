#include "mpi/runtime.h"

#include <algorithm>

#include "mpi/cr.h"
#include "util/error.h"
#include "util/log.h"

namespace nm::mpi {

// --- Rank --------------------------------------------------------------------

Rank::Rank(MpiRuntime& runtime, RankId id, guest::GuestOs& os)
    : runtime_(&runtime),
      id_(id),
      os_(&os),
      ib_driver_(os),
      eth_driver_(os),
      notifier_(runtime.simulation()) {}

void Rank::build_btls() {
  teardown_btls();
  // `self`/`sm` equivalent: intra-VM shared memory is always available.
  modules_.push_back(std::make_unique<SmBtl>(vm()));
  if (eth_driver_.ready()) {
    modules_.push_back(std::make_unique<TcpBtl>(eth_driver_));
  }
  // The openib component only initializes on an ACTIVE port.
  if (ib_driver_.ready()) {
    modules_.push_back(std::make_unique<OpenIbBtl>(ib_driver_));
  }
  NM_LOG_DEBUG("mpi") << "rank " << id_ << ": built BTLs {"
                      << [&] {
                           std::string s;
                           for (const auto& m : modules_) {
                             s += std::string(m->name()) + " ";
                           }
                           return s;
                         }()
                      << "}";
}

void Rank::teardown_btls() { modules_.clear(); }

bool Rank::has_invalid_btl() const {
  return std::any_of(modules_.begin(), modules_.end(),
                     [](const auto& m) { return !m->valid(); });
}

void Rank::release_ib_resources() {
  for (auto& m : modules_) {
    m->release_resources();
  }
}

BtlModule* Rank::select_btl(const ModexEntry& peer) {
  BtlModule* best = nullptr;
  for (auto& m : modules_) {
    if (m->valid() && m->can_reach(peer) &&
        (best == nullptr || m->exclusivity() > best->exclusivity())) {
      best = m.get();
    }
  }
  return best;
}

std::vector<std::string> Rank::btl_names() const {
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const auto& m : modules_) {
    names.emplace_back(m->name());
  }
  return names;
}

ModexEntry Rank::make_modex_entry() const {
  ModexEntry entry;
  entry.vm_id = reinterpret_cast<std::uint64_t>(&const_cast<Rank*>(this)->vm());
  if (eth_driver_.ready()) {
    entry.ip = eth_driver_.address();
  }
  if (ib_driver_.ready()) {
    entry.lid = ib_driver_.address();
  }
  return entry;
}

const ModexEntry& Rank::peer(RankId r) const {
  NM_CHECK(r >= 0 && static_cast<std::size_t>(r) < peers_.size(),
           "rank " << id_ << " has no modex entry for peer " << r);
  return peers_[static_cast<std::size_t>(r)];
}

std::string Rank::transport_to(RankId peer_rank) {
  BtlModule* btl = select_btl(peer(peer_rank));
  return btl == nullptr ? "none" : std::string(btl->name());
}

// --- MpiRuntime ----------------------------------------------------------------

MpiRuntime::MpiRuntime(sim::Simulation& sim, Options options)
    : sim_(&sim), options_(options), cr_(std::make_unique<CrService>(*this)) {}

MpiRuntime::~MpiRuntime() = default;

Rank& MpiRuntime::add_rank(guest::GuestOs& os) {
  NM_CHECK(!initialized_, "cannot add ranks after init()");
  const RankId id = static_cast<RankId>(ranks_.size());
  ranks_.push_back(std::make_unique<Rank>(*this, id, os));
  unexpected_.emplace_back();
  return *ranks_.back();
}

void MpiRuntime::init() {
  NM_CHECK(!initialized_, "init() called twice");
  NM_CHECK(!ranks_.empty(), "no ranks added");
  for (auto& rank : ranks_) {
    rank->build_btls();
  }
  run_modex();
  cr_->on_init(ranks_.size());
  initialized_ = true;
  NM_LOG_INFO("mpi") << "job initialized with " << ranks_.size() << " ranks"
                     << (options_.ft_enable_cr ? " (ft-enable-cr)" : "");
}

Rank& MpiRuntime::rank(RankId id) {
  NM_CHECK(id >= 0 && static_cast<std::size_t>(id) < ranks_.size(),
           "rank id " << id << " out of range");
  return *ranks_[static_cast<std::size_t>(id)];
}

void MpiRuntime::run_modex() {
  std::vector<ModexEntry> table;
  table.reserve(ranks_.size());
  for (const auto& rank : ranks_) {
    table.push_back(rank->make_modex_entry());
  }
  for (auto& rank : ranks_) {
    rank->set_peers(table);
  }
}

sim::Task MpiRuntime::transfer_and_deliver(RankId from, RankId to, int tag, Bytes bytes,
                                           std::uint64_t token) {
  Rank& sender = rank(from);
  BtlModule* btl = sender.select_btl(sender.peer(to));
  if (btl == nullptr) {
    throw OperationError("rank " + std::to_string(from) + " has no transport to rank " +
                         std::to_string(to));
  }
  ++in_flight_;
  try {
    co_await btl->put(sender.peer(to), bytes);
  } catch (...) {
    --in_flight_;
    cr_->notify_state_changed();
    throw;
  }
  --in_flight_;
  deliver(to, MessageInfo{from, tag, bytes, token});
}

sim::Task MpiRuntime::send(RankId from, RankId to, int tag, Bytes bytes, std::uint64_t token) {
  NM_CHECK(initialized_, "send before init()");
  Rank& sender = rank(from);
  (void)rank(to);  // bounds check
  if (cr_->owes(sender)) {
    co_await cr_->service(sender);
  }

  if (bytes <= options_.eager_limit) {
    // Eager protocol: the payload travels asynchronously; the sender
    // returns as soon as the message is on the wire. The CRCP drain step
    // exists precisely to catch these in-flight bytes.
    auto request = isend_internal(from, to, tag, bytes, token);
    (void)request;
    co_return;
  }
  co_await transfer_and_deliver(from, to, tag, bytes, token);
}

RequestPtr MpiRuntime::isend_internal(RankId from, RankId to, int tag, Bytes bytes,
                                      std::uint64_t token) {
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kSend;
  request->owner = from;
  sim_->spawn(
      [](MpiRuntime& rt, RequestPtr req, RankId f, RankId t, int tg, Bytes b,
         std::uint64_t tok) -> sim::Task {
        co_await rt.transfer_and_deliver(f, t, tg, b, tok);
        req->complete_ = true;
        rt.rank(f).notify();
      }(*this, request, from, to, tag, bytes, token),
      "isend:" + std::to_string(from) + "->" + std::to_string(to));
  return request;
}

RequestPtr MpiRuntime::isend(RankId from, RankId to, int tag, Bytes bytes, std::uint64_t token) {
  NM_CHECK(initialized_, "isend before init()");
  (void)rank(to);
  return isend_internal(from, to, tag, bytes, token);
}

RequestPtr MpiRuntime::irecv(RankId me, RankId src, int tag) {
  NM_CHECK(initialized_, "irecv before init()");
  (void)rank(me);
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kRecv;
  request->owner = me;
  request->src_filter = src;
  request->tag_filter = tag;
  return request;
}

sim::Task MpiRuntime::wait(RankId me, RequestPtr request) {
  NM_CHECK(request != nullptr, "wait on null request");
  NM_CHECK(request->owner == me, "rank " << me << " waiting on rank " << request->owner
                                         << "'s request");
  Rank& waiter = rank(me);
  while (true) {
    if (cr_->owes(waiter)) {
      co_await cr_->service(waiter);
    }
    if (request->complete_) {
      co_return;
    }
    if (request->kind == Request::Kind::kRecv) {
      auto matched = try_match(me, request->src_filter, request->tag_filter);
      if (matched.has_value()) {
        request->info_ = *matched;
        request->complete_ = true;
        co_return;
      }
    }
    co_await waiter.wait_notify();
  }
}

sim::Task MpiRuntime::wait_all(RankId me, std::vector<RequestPtr> requests) {
  for (auto& request : requests) {
    co_await wait(me, request);
  }
}

sim::Task MpiRuntime::recv(RankId me, RankId src, int tag, MessageInfo* out) {
  NM_CHECK(initialized_, "recv before init()");
  Rank& receiver = rank(me);
  while (true) {
    if (cr_->owes(receiver)) {
      co_await cr_->service(receiver);
    }
    auto matched = try_match(me, src, tag);
    if (matched.has_value()) {
      if (out != nullptr) {
        *out = *matched;
      }
      co_return;
    }
    co_await receiver.wait_notify();
  }
}

sim::Task MpiRuntime::progress(RankId me) {
  Rank& caller = rank(me);
  if (cr_->owes(caller)) {
    co_await cr_->service(caller);
  }
}

void MpiRuntime::deliver(RankId to, MessageInfo msg) {
  ++messages_delivered_;
  unexpected_[static_cast<std::size_t>(to)].push_back(msg);
  rank(to).notify();
  cr_->notify_state_changed();
}

std::optional<MessageInfo> MpiRuntime::try_match(RankId me, RankId src, int tag) {
  auto& queue = unexpected_[static_cast<std::size_t>(me)];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    const bool src_ok = (src == kAnySource) || (it->src == src);
    const bool tag_ok = (tag == kAnyTag) || (it->tag == tag);
    if (src_ok && tag_ok) {
      MessageInfo msg = *it;
      queue.erase(it);
      return msg;
    }
  }
  return std::nullopt;
}

std::size_t MpiRuntime::unexpected_count() const {
  std::size_t total = 0;
  for (const auto& q : unexpected_) {
    total += q.size();
  }
  return total;
}

}  // namespace nm::mpi
