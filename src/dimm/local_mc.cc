#include "dimm/local_mc.hh"

#include "common/bitfield.hh"
#include "common/log.hh"

namespace dimmlink {

LocalMc::LocalMc(EventQueue &eq, const std::string &name, DimmId self_,
                 const SystemConfig &cfg_, const dram::Timing &timing,
                 const dram::GlobalAddressMap &gmap_,
                 stats::Registry &reg)
    : eventq(eq),
      self(self_),
      cfg(cfg_),
      gmap(gmap_),
      lineBytes(cfg_.dimm.lineBytes),
      statLocalReads(reg.group(name).scalar("localReads")),
      statLocalWrites(reg.group(name).scalar("localWrites")),
      statRemoteReads(reg.group(name).scalar("remoteReads")),
      statRemoteWrites(reg.group(name).scalar("remoteWrites")),
      statLocalBytes(reg.group(name).scalar("localBytes")),
      statRemoteBytes(reg.group(name).scalar("remoteBytes"))
{
    for (unsigned r = 0; r < cfg.dimm.numRanks; ++r) {
        const std::string cname = name + ".rank" + std::to_string(r);
        rankCtrl.push_back(std::make_unique<dram::DramController>(
            eq, cname, timing, /*num_ranks=*/1, lineBytes,
            reg.group(cname), cfg.dramScheduler));
        rankCtrl.back()->setUnblockCallback([this] { drainPending(); });
    }
}

unsigned
LocalMc::rankOf(Addr local) const
{
    return static_cast<unsigned>((local / lineBytes) %
                                 cfg.dimm.numRanks);
}

Addr
LocalMc::ctrlAddr(Addr local) const
{
    // De-interleave: strip the rank bits from the line index.
    const Addr line_idx = local / lineBytes;
    return (line_idx / cfg.dimm.numRanks) * lineBytes;
}

void
LocalMc::enqueueLine(Addr line_addr, bool is_write,
                     EventCallback done)
{
    dram::DramController &ctrl = *rankCtrl[rankOf(line_addr)];
    if (ctrl.full(is_write)) {
        // Controller queue full: park in the transaction buffer; the
        // unblock callback drains it.
        pending.push_back(PendingLine{line_addr, is_write,
                                      std::move(done)});
        return;
    }
    dram::DramRequest req;
    req.local = ctrlAddr(line_addr);
    req.isWrite = is_write;
    req.done = std::move(done);
    if (!ctrl.enqueue(std::move(req)))
        panic("DRAM controller rejected a request it said fit");
}

void
LocalMc::drainPending()
{
    while (!pending.empty()) {
        PendingLine &p = pending.front();
        dram::DramController &ctrl = *rankCtrl[rankOf(p.local)];
        if (ctrl.full(p.isWrite))
            return;
        dram::DramRequest req;
        req.local = ctrlAddr(p.local);
        req.isWrite = p.isWrite;
        req.done = std::move(p.done);
        ctrl.enqueue(std::move(req));
        pending.pop_front();
    }
}

void
LocalMc::dramAccess(Addr local, std::uint32_t bytes, bool is_write,
                    EventCallback done)
{
    const Addr first = roundDown(local, lineBytes);
    const Addr last = roundDown(local + bytes - 1, lineBytes);
    if (first == last) {
        // One line: its DRAM completion is the access's completion.
        enqueueLine(first, is_write,
                    done ? std::move(done) : EventCallback([] {}));
        return;
    }
    std::uint32_t span;
    if (freeSpans.empty()) {
        span = static_cast<std::uint32_t>(spans.size());
        spans.emplace_back();
    } else {
        span = freeSpans.back();
        freeSpans.pop_back();
    }
    spans[span].remaining =
        static_cast<std::size_t>((last - first) / lineBytes) + 1;
    spans[span].done = std::move(done);
    for (Addr a = first; a <= last; a += lineBytes)
        enqueueLine(a, is_write, [this, span] { lineDone(span); });
}

void
LocalMc::lineDone(std::uint32_t span)
{
    Span &s = spans[span];
    if (--s.remaining != 0)
        return;
    EventCallback done = std::move(s.done);
    freeSpans.push_back(span);
    if (done)
        done();
}

void
LocalMc::access(Addr global, std::uint32_t bytes, bool is_write,
                EventCallback done)
{
    const DimmId target = gmap.dimmOf(global);
    if (target == self) {
        if (is_write) {
            ++statLocalWrites;
        } else {
            ++statLocalReads;
        }
        statLocalBytes += bytes;
        dramAccess(gmap.localOf(global), bytes, is_write,
                   std::move(done));
        return;
    }

    if (!fabric)
        panic("dimm%u: remote access with no IDC fabric wired", self);
    if (is_write) {
        ++statRemoteWrites;
    } else {
        ++statRemoteReads;
    }
    statRemoteBytes += bytes;

    idc::Transaction t;
    t.type = is_write ? idc::Transaction::Type::RemoteWrite
                      : idc::Transaction::Type::RemoteRead;
    t.src = self;
    t.dst = target;
    t.addr = gmap.localOf(global);
    t.bytes = bytes;
    t.onComplete = std::move(done);
    fabric->submit(std::move(t));
}

void
LocalMc::remoteAccess(Addr local, std::uint32_t bytes, bool is_write,
                      EventCallback done)
{
    if (is_write) {
        ++statLocalWrites;
    } else {
        ++statLocalReads;
    }
    statLocalBytes += bytes;
    dramAccess(local, bytes, is_write, std::move(done));
}

void
LocalMc::postedWrite(Addr global, std::uint32_t bytes)
{
    access(global, bytes, /*is_write=*/true, EventCallback{});
}

bool
LocalMc::idle() const
{
    if (!pending.empty())
        return false;
    for (const auto &c : rankCtrl)
        if (!c->idle())
            return false;
    return true;
}

} // namespace dimmlink
