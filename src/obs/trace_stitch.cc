#include "obs/trace_stitch.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/string_util.h"

namespace mivid {

namespace {

struct InputInfo {
  const std::vector<JsonValue>* events = nullptr;
  std::string process;
  uint64_t wall_epoch_us = 0;
  bool has_epoch = false;
};

Result<InputInfo> Inspect(const ProcessTrace& input) {
  const JsonValue* events = input.doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(StrFormat(
        "trace %s: missing traceEvents array", input.label.c_str()));
  }
  InputInfo info;
  info.events = &events->array;
  info.process = input.label;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.Find("name");
    if (name == nullptr || name->string != "clock_sync") continue;
    const JsonValue* args = event.Find("args");
    if (args == nullptr) continue;
    if (const JsonValue* epoch = args->Find("wall_epoch_us")) {
      // An epoch that is not a uint64 reads as none: no rebasing.
      if (const std::optional<uint64_t> us = epoch->Int<uint64_t>()) {
        info.wall_epoch_us = *us;
        info.has_epoch = true;
      }
    }
    if (const JsonValue* process = args->Find("process");
        process != nullptr && process->is_string() &&
        !process->string.empty()) {
      info.process = process->string;
    }
    break;
  }
  return info;
}

}  // namespace

Result<std::string> StitchChromeTraces(
    const std::vector<ProcessTrace>& inputs) {
  std::vector<InputInfo> infos;
  infos.reserve(inputs.size());
  for (const ProcessTrace& input : inputs) {
    MIVID_ASSIGN_OR_RETURN(InputInfo info, Inspect(input));
    infos.push_back(std::move(info));
  }

  // Rebase onto the earliest epoch so all offsets are non-negative.
  // Inputs without a clock_sync anchor keep their own timeline (offset
  // 0 against the base) — better a skewed track than a dropped one.
  uint64_t base_epoch_us = 0;
  bool have_base = false;
  for (const InputInfo& info : infos) {
    if (!info.has_epoch) continue;
    if (!have_base || info.wall_epoch_us < base_epoch_us) {
      base_epoch_us = info.wall_epoch_us;
      have_base = true;
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& piece) {
    if (!first) out += ",";
    first = false;
    out += piece;
  };
  for (size_t i = 0; i < infos.size(); ++i) {
    const InputInfo& info = infos[i];
    const int pid = static_cast<int>(i) + 1;
    const uint64_t offset_us =
        info.has_epoch ? info.wall_epoch_us - base_epoch_us : 0;
    append(StrFormat(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, JsonEscape(info.process).c_str()));
    for (const JsonValue& event : *info.events) {
      const JsonValue* name = event.Find("name");
      if (name == nullptr || !name->is_string()) continue;
      // Per-input process metadata is superseded by the row above;
      // clock_sync anchors are consumed by the rebase.
      if (name->string == "process_name" || name->string == "clock_sync") {
        continue;
      }
      JsonValue rebased = event;
      for (auto& [key, value] : rebased.object) {
        if (key == "pid") {
          value.number = pid;
        } else if (key == "ts" && value.is_number()) {
          value.number += static_cast<double>(offset_us);
        }
      }
      append(JsonSerialize(rebased));
    }
  }
  out += "]}";
  return out;
}

}  // namespace mivid
