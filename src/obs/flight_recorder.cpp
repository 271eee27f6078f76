#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nk::obs {

void flight_recorder::append(std::uint16_t nsm, const flight_event& ev) {
  ring& r = rings_[nsm];
  if (r.buf.empty()) r.buf.resize(capacity());
  r.buf[r.next] = ev;
  r.next = (r.next + 1) % r.buf.size();
  ++r.total;
}

void flight_recorder::note(std::uint16_t nsm, std::uint16_t vm,
                           std::string_view text, sim_time at) {
  flight_event ev;
  ev.at = at;
  ev.kind = flight_event_kind::note;
  ev.vm = vm;
  const std::size_t n = std::min(text.size(), ev.note.size() - 1);
  std::memcpy(ev.note.data(), text.data(), n);
  ev.note[n] = '\0';
  append(nsm, ev);
}

std::vector<flight_event> flight_recorder::events(std::uint16_t nsm) const {
  std::vector<flight_event> out;
  auto it = rings_.find(nsm);
  if (it == rings_.end()) return out;
  const ring& r = it->second;
  const std::size_t held = static_cast<std::size_t>(
      std::min<std::uint64_t>(r.total, r.buf.size()));
  out.reserve(held);
  // Oldest event is at `next` once wrapped, at 0 before.
  const std::size_t start = r.total >= r.buf.size() ? r.next : 0;
  for (std::size_t i = 0; i < held; ++i) {
    out.push_back(r.buf[(start + i) % r.buf.size()]);
  }
  return out;
}

std::uint64_t flight_recorder::total(std::uint16_t nsm) const {
  auto it = rings_.find(nsm);
  return it == rings_.end() ? 0 : it->second.total;
}

std::string flight_recorder::snapshot_json(std::uint16_t nsm,
                                           sim_time now) const {
  std::ostringstream os;
  os << "{\"nsm\":" << nsm << ",\"at_ns\":" << now.count()
     << ",\"events_total\":" << total(nsm) << ",\"capacity\":"
     << capacity() << ",\"events\":[";
  bool first = true;
  for (const flight_event& ev : events(nsm)) {
    if (!first) os << ',';
    first = false;
    os << "{\"at_ns\":" << ev.at.count() << ",\"kind\":\""
       << to_string(ev.kind) << '"';
    if (ev.kind == flight_event_kind::note) {
      os << ",\"note\":\"" << json_escape(ev.note.data()) << '"';
    } else {
      os << ",\"trace\":" << ev.trace << ",\"op\":\"" << shm::to_string(ev.op)
         << "\",\"dir\":\"" << (ev.reverse ? "rev" : "fwd") << '"';
      if (ev.kind == flight_event_kind::trace_stamp) {
        os << ",\"stage\":\""
           << to_string(static_cast<nqe_stage>(ev.stage)) << '"';
      }
    }
    os << ",\"vm\":" << ev.vm << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace nk::obs
