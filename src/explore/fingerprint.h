// Fingerprint text: the one way a SystemInstance::fingerprint override
// (and the lease ledger it folds in) writes its serialized final state.
//
// Every helper appends to one caller-owned std::string, integers through
// std::to_chars: no stream, no locale, no temporary string per value.  The
// explorer computes a fingerprint once per new DFS frame when the
// visited-state cache is on, so this sits on the hot path of every
// refutation.  The text is a compatibility surface (see system.h): keep
// the separators below exactly as they are.
//
// The shapes:
//   fp_field   label=value;
//   fp_list    label=[e,e,...,];   each element written by a callable
//   fp_peeks   label=[r.peek(),...,];
//   fp_values  label=[v,...,];
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace bss::explore {

/// Appends the decimal text of an integer (what `ostream << value` writes
/// for every non-character integer type).
template <class Int>
void fp_append(std::string& out, Int value) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool> &&
                    !std::is_same_v<Int, char>,
                "fingerprint values are integers; write text with +=");
  char digits[24];
  const auto written = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, written.ptr);
}

/// Appends `label=value;`.
template <class Int>
void fp_field(std::string& out, std::string_view label, Int value) {
  out += label;
  out += '=';
  fp_append(out, value);
  out += ';';
}

/// Appends `label=[` then, per element, what `write(out, element)` writes
/// followed by `,`, then `];`.
template <class Range, class Write>
void fp_list(std::string& out, std::string_view label, const Range& range,
             Write write) {
  out += label;
  out += "=[";
  for (const auto& element : range) {
    write(out, element);
    out += ',';
  }
  out += "];";
}

/// Appends `label=[peek,peek,...,];` over a vector of registers.
template <class Registers>
void fp_peeks(std::string& out, std::string_view label,
              const Registers& registers) {
  fp_list(out, label, registers,
          [](std::string& text, const auto& reg) { fp_append(text, reg.peek()); });
}

/// Appends `label=[value,value,...,];` over integers.
template <class Values>
void fp_values(std::string& out, std::string_view label,
               const Values& values) {
  fp_list(out, label, values,
          [](std::string& text, const auto& value) { fp_append(text, value); });
}

}  // namespace bss::explore
