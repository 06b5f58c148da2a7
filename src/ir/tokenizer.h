// Text tokenization for the IR pipeline.
//
// The attention parser and the content recommender both reduce text (page
// bodies, URLs, story transcripts) to lower-case terms. The tokenizer
// splits on non-alphanumeric characters, lower-cases, and drops tokens
// that are too short/long or purely numeric — the standard preprocessing
// for the BM25 / Offer Weight computations in this module.
#pragma once

#include <array>
#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reef::ir {

struct TokenizerOptions {
  std::size_t min_length = 2;
  std::size_t max_length = 40;
  bool drop_numeric = true;
};

/// The tokenizer's walk: calls `fn(std::string_view token)` for each
/// normalized token of `text`, in text order. A token is a maximal run of
/// alphanumeric bytes (std::isalnum; every other byte, including each
/// byte of a non-ASCII UTF-8 sequence, separates), lower-cased, kept when
/// its length is within [min_length, max_length] and, with drop_numeric,
/// it is not all digits. The view is valid only during the call. The walk
/// allocates nothing unless options.max_length exceeds kInlineToken and a
/// token that long is kept.
inline constexpr std::size_t kInlineToken = 64;

template <typename Fn>
void for_each_token(std::string_view text, const TokenizerOptions& options,
                    Fn&& fn) {
  std::array<char, kInlineToken> inline_buf;
  std::string long_buf;
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && !std::isalnum(static_cast<unsigned char>(text[i]))) ++i;
    const std::size_t start = i;
    bool all_digits = true;
    for (; i < n; ++i) {
      const auto c = static_cast<unsigned char>(text[i]);
      if (!std::isalnum(c)) break;
      if (!std::isdigit(c)) all_digits = false;
    }
    const std::size_t len = i - start;
    if (len == 0 || len < options.min_length || len > options.max_length ||
        (options.drop_numeric && all_digits)) {
      continue;
    }
    char* out = inline_buf.data();
    if (len > inline_buf.size()) {
      long_buf.resize(len);
      out = long_buf.data();
    }
    for (std::size_t k = 0; k < len; ++k) {
      out[k] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[start + k])));
    }
    fn(std::string_view(out, len));
  }
}

template <typename Fn>
void for_each_token(std::string_view text, Fn&& fn) {
  for_each_token(text, TokenizerOptions{}, std::forward<Fn>(fn));
}

/// Splits `text` into normalized tokens (for_each_token, collected).
std::vector<std::string> tokenize(std::string_view text,
                                  const TokenizerOptions& options);
std::vector<std::string> tokenize(std::string_view text);

/// True for terms in the built-in English stopword list (already
/// lower-case input expected).
bool is_stopword(std::string_view term) noexcept;

/// Number of entries in the stopword list (for tests).
std::size_t stopword_count() noexcept;

/// Porter's stemming algorithm (the 1980 original). Input must be
/// lower-case ASCII; returns the stem. Strings shorter than 3 characters
/// are returned unchanged (per the algorithm).
std::string porter_stem(std::string_view word);

/// Full preprocessing: tokenize, drop stopwords, stem.
std::vector<std::string> analyze(std::string_view text);

}  // namespace reef::ir
