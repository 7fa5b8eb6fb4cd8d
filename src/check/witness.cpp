#include "src/check/witness.h"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/runtime/scheduler.h"

namespace revisim::check {
namespace {

// Verdict messages are stored on one line; fold any embedded newlines.
std::string one_line(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return out;
}

}  // namespace

std::string to_text(const Witness& w) {
  std::ostringstream out;
  out << "revisim-witness v2\n";
  out << "world " << w.world << '\n';
  out << "max_steps " << w.max_steps << '\n';
  out << "max_crashes " << w.max_crashes << '\n';
  out << "verdict " << one_line(w.verdict) << '\n';
  out << "schedule";
  for (runtime::ProcessId entry : w.schedule) {
    if (runtime::is_crash_entry(entry)) {
      out << " c" << runtime::crash_entry_target(entry);
    } else {
      out << " s" << entry;
    }
  }
  out << "\nend\n";
  return out.str();
}

Witness parse_witness(const std::string& text) {
  Witness w;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  bool saw_end = false;
  std::set<std::string> seen;
  auto fail = [&](const std::string& why) -> void {
    throw std::invalid_argument("witness line " + std::to_string(lineno) +
                                ": " + why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!saw_header) {
      if (line == "revisim-witness v1") {
        fail("witness format v1 is no longer read (v2 names the world by "
             "one spec line, \"world <name>:<params>\"); re-record it");
      }
      if (line != "revisim-witness v2") {
        fail("expected header \"revisim-witness v2\", got \"" + line + "\"");
      }
      saw_header = true;
      continue;
    }
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "end") {
      saw_end = true;
      break;
    }
    if (!seen.insert(key).second) {
      fail("duplicate key \"" + key + "\"");
    }
    auto number = [&]() -> std::size_t {
      const auto v = parse_decimal(rest);
      if (!v) {
        fail(key + " needs a decimal number, got \"" + rest + "\"");
      }
      return *v;
    };
    if (key == "world") {
      try {
        (void)make_world_factory(rest);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
      w.world = rest;
    } else if (key == "max_steps") {
      w.max_steps = number();
    } else if (key == "max_crashes") {
      w.max_crashes = number();
    } else if (key == "verdict") {
      w.verdict = rest;
    } else if (key == "schedule") {
      std::istringstream ls(rest);
      std::string tok;
      while (ls >> tok) {
        const auto pid = parse_decimal(std::string_view(tok).substr(1));
        if (tok.size() < 2 || (tok[0] != 's' && tok[0] != 'c') || !pid ||
            *pid >= runtime::kCrashEntryBit) {
          fail("bad schedule entry \"" + tok +
               "\" (want s<pid> or c<pid>, 0-based)");
        }
        w.schedule.push_back(tok[0] == 'c' ? runtime::make_crash_entry(*pid)
                                           : *pid);
      }
    } else {
      fail("unknown key \"" + key + "\"");
    }
  }
  if (!saw_header) {
    throw std::invalid_argument(
        "witness: missing \"revisim-witness v2\" header");
  }
  if (!saw_end) {
    throw std::invalid_argument(
        "witness: missing \"end\" line (truncated file?)");
  }
  if (w.world.empty()) {
    throw std::invalid_argument("witness: missing \"world\" line");
  }
  return w;
}

void write_witness_file(const Witness& w, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open witness file for writing: " + path);
  }
  out << to_text(w);
  if (!out) {
    throw std::runtime_error("failed writing witness file: " + path);
  }
}

Witness load_witness_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open witness file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_witness(buf.str());
}

ReplayResult replay_witness(const Witness& w) {
  auto factory = make_world_factory(w.world);
  auto world = factory();
  for (runtime::ProcessId entry : w.schedule) {
    const runtime::ProcessId target = runtime::is_crash_entry(entry)
                                          ? runtime::crash_entry_target(entry)
                                          : entry;
    if (target >= world->scheduler().process_count()) {
      throw std::invalid_argument(
          "witness schedule references process " + std::to_string(target) +
          " but the world has " +
          std::to_string(world->scheduler().process_count()) + " processes");
    }
  }
  ReplayResult res;
  for (runtime::ProcessId entry : w.schedule) {
    runtime::apply_schedule_entry(world->scheduler(), entry);
    if (runtime::is_crash_entry(entry)) {
      ++res.crashes;
    } else {
      ++res.steps;
    }
  }
  const bool complete = world->scheduler().runnable().empty();
  res.verdict = world->verdict(complete);
  const std::string got = res.verdict.value_or("");
  res.matches = one_line(got) == one_line(w.verdict);
  return res;
}

}  // namespace revisim::check
