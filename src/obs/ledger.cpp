#include "obs/ledger.h"

namespace zapc::obs {

Json ledger_entry_to_json(const LedgerEntry& e) {
  Json j = Json::object();
  j["schema"] = kLedgerSchemaVersion;
  j["op"] = e.op;
  j["kind"] = e.kind;
  j["outcome"] = e.outcome;
  if (!e.error.empty()) j["error"] = e.error;
  if (e.transient) j["transient"] = true;
  if (e.will_retry) j["will_retry"] = true;
  j["attempt"] = e.attempt;
  j["start_us"] = e.start_us;
  j["end_us"] = e.end_us;
  j["downtime_us"] = e.downtime_us;
  j["latency_us"] = e.latency_us;
  j["pods"] = e.pods;
  if (!e.phase_us.empty()) {
    Json ph = Json::object();
    for (const auto& [name, us] : e.phase_us) ph[name] = us;
    j["phase_us"] = std::move(ph);
  }
  j["image_bytes"] = e.image_bytes;
  j["network_bytes"] = e.network_bytes;
  if (e.logical_bytes != 0) j["logical_bytes"] = e.logical_bytes;
  if (!e.straggler_pod.empty()) {
    Json s = Json::object();
    s["pod"] = e.straggler_pod;
    s["phase"] = e.straggler_phase;
    s["lag_us"] = e.straggler_lag_us;
    j["straggler"] = std::move(s);
  }
  if (e.has_attrib) j["critpath"] = attribution_to_json(e.attrib);
  if (!e.trigger.empty() && e.trigger != "manual") j["trigger"] = e.trigger;
  if (e.mttr_us != 0) j["mttr_us"] = e.mttr_us;
  if (e.lazy_faults != 0) j["lazy_faults"] = e.lazy_faults;
  if (e.lazy_bytes != 0) j["lazy_bytes"] = e.lazy_bytes;
  if (e.drain_throttled_us != 0) {
    j["drain_throttled_us"] = e.drain_throttled_us;
  }
  if (e.drain_contended_us != 0) {
    j["drain_contended_us"] = e.drain_contended_us;
  }
  if (e.drain_granted_bps != 0) j["drain_granted_bps"] = e.drain_granted_bps;
  return j;
}

Result<LedgerEntry> ledger_entry_from_json(const Json& j) {
  if (!j.is_obj()) return Status(Err::PROTO, "ledger entry: not an object");
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_str() ||
      schema->str() != kLedgerSchemaVersion) {
    return Status(Err::PROTO, "ledger entry: bad schema tag");
  }
  auto str = [&](const char* k) {
    const Json* v = j.find(k);
    return v != nullptr && v->is_str() ? v->str() : std::string();
  };
  auto num = [&](const char* k) -> u64 {
    const Json* v = j.find(k);
    return v != nullptr && v->is_num() ? v->num_u64() : 0;
  };
  auto flag = [&](const char* k) {
    const Json* v = j.find(k);
    return v != nullptr && v->boolean();
  };
  LedgerEntry e;
  e.op = num("op");
  e.kind = str("kind");
  e.outcome = str("outcome");
  e.error = str("error");
  e.transient = flag("transient");
  e.will_retry = flag("will_retry");
  e.attempt = static_cast<u32>(num("attempt"));
  e.start_us = num("start_us");
  e.end_us = num("end_us");
  e.downtime_us = num("downtime_us");
  e.latency_us = num("latency_us");
  e.pods = static_cast<u32>(num("pods"));
  if (const Json* ph = j.find("phase_us"); ph != nullptr && ph->is_obj()) {
    for (const auto& [name, v] : ph->fields()) {
      if (v.is_num()) e.phase_us[name] = v.num_u64();
    }
  }
  e.image_bytes = num("image_bytes");
  e.network_bytes = num("network_bytes");
  e.logical_bytes = num("logical_bytes");
  if (const Json* s = j.find("straggler"); s != nullptr && s->is_obj()) {
    if (const Json* v = s->find("pod"); v != nullptr) {
      e.straggler_pod = v->str();
    }
    if (const Json* v = s->find("phase"); v != nullptr) {
      e.straggler_phase = v->str();
    }
    if (const Json* v = s->find("lag_us"); v != nullptr && v->is_num()) {
      e.straggler_lag_us = v->num_u64();
    }
  }
  if (const Json* cp = j.find("critpath"); cp != nullptr) {
    Result<OpAttribution> a = attribution_from_json(*cp);
    if (!a.is_ok()) return a.status();
    e.attrib = std::move(a).value();
    e.has_attrib = true;
  }
  // Pre-supervisor lines carry no trigger field: everything was manual.
  std::string trig = str("trigger");
  e.trigger = trig.empty() ? "manual" : trig;
  e.mttr_us = num("mttr_us");
  // Pre-QoS / pre-lazy lines carry none of these: fold to 0.
  e.lazy_faults = num("lazy_faults");
  e.lazy_bytes = num("lazy_bytes");
  e.drain_throttled_us = num("drain_throttled_us");
  e.drain_contended_us = num("drain_contended_us");
  e.drain_granted_bps = num("drain_granted_bps");
  return e;
}

Ledger::Ledger(const std::string& path) {
  file_ = std::fopen(path.c_str(), "ab");
}

Ledger::~Ledger() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Ledger::append(const LedgerEntry& e) {
  entries_.push_back(e);
  if (file_ == nullptr) return Status::ok();
  std::string line = ledger_entry_to_json(e).dump(0);
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status(Err::IO, "ledger append failed");
  }
  std::fflush(file_);
  return Status::ok();
}

Status Ledger::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(Err::IO, "ledger: cannot open " + path);
  }
  for (const LedgerEntry& e : entries_) {
    std::string line = ledger_entry_to_json(e).dump(0);
    line.push_back('\n');
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      return Status(Err::IO, "ledger: short write to " + path);
    }
  }
  std::fclose(f);
  return Status::ok();
}

Result<Ledger::LoadResult> Ledger::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Err::NO_ENT, "ledger: cannot open " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  LoadResult out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    bool has_newline = nl != std::string::npos;
    std::string line =
        text.substr(pos, has_newline ? nl - pos : std::string::npos);
    pos = has_newline ? nl + 1 : text.size();
    if (line.empty()) continue;
    bool is_last = pos >= text.size();
    Result<Json> j = json_parse(line);
    Result<LedgerEntry> e =
        j.is_ok() ? ledger_entry_from_json(j.value())
                  : Result<LedgerEntry>(j.status());
    if (!e.is_ok()) {
      // A crash mid-append can only tear the final line; anything
      // malformed earlier means the file is not a ledger.
      if (is_last) {
        out.skipped_torn++;
        continue;
      }
      return Status(Err::PROTO,
                    "ledger: malformed line: " + e.status().to_string());
    }
    out.entries.push_back(std::move(e).value());
  }
  return out;
}

}  // namespace zapc::obs
