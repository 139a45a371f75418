#include "service/portfolio_session.hpp"

#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace are::service {

namespace {

obs::Gauge& ground_up_gauge() {
  static obs::Gauge& gauge =
      obs::TelemetryRegistry::global().gauge("service.ground_up_bytes");
  return gauge;
}

}  // namespace

PortfolioSession::PortfolioSession(yet::YearEventTable yet_table, SessionConfig config)
    : yet_(std::move(yet_table)), config_(config), pool_(config.num_threads) {}

void PortfolioSession::register_portfolio(std::string id, core::Portfolio portfolio) {
  portfolio.validate();
  auto shared = std::make_shared<const core::Portfolio>(std::move(portfolio));
  std::lock_guard<std::mutex> guard(mutex_);
  Book& book = books_[std::move(id)];
  book.portfolio = std::move(shared);
  ++book.generation;
  ++book.structure_generation;
  book.capture_claimed = false;
  set_ground_up_locked(book, nullptr);
}

void PortfolioSession::update_layer_terms(std::string_view id, std::uint32_t layer_id,
                                          const financial::LayerTerms& terms) {
  terms.validate();
  std::lock_guard<std::mutex> guard(mutex_);
  Book& book = book_or_throw(id);
  auto updated = std::make_shared<core::Portfolio>(*book.portfolio);
  bool found = false;
  for (core::Layer& layer : updated->layers) {
    if (layer.id != layer_id) continue;
    layer.terms = terms;
    found = true;
    break;
  }
  if (!found) {
    throw std::invalid_argument("portfolio '" + std::string(id) + "' has no layer " +
                                std::to_string(layer_id));
  }
  book.portfolio = std::move(updated);
  ++book.generation;  // structure_generation unchanged: the ground-up cache survives
}

PortfolioSession::BookSnapshot PortfolioSession::snapshot(std::string_view id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const Book& book = book_or_throw(id);
  return {book.portfolio, book.generation, book.structure_generation, book.ground_up};
}

bool PortfolioSession::try_claim_capture(std::string_view id,
                                         std::uint64_t structure_generation,
                                         std::size_t estimated_bytes) {
  std::lock_guard<std::mutex> guard(mutex_);
  Book& book = book_or_throw(id);
  if (book.capture_claimed) return false;
  if (book.structure_generation != structure_generation) return false;
  if (book.ground_up != nullptr) return false;  // already captured
  if (estimated_bytes > config_.ground_up_budget_bytes ||
      ground_up_bytes_ + estimated_bytes > config_.ground_up_budget_bytes) {
    return false;
  }
  book.capture_claimed = true;
  return true;
}

void PortfolioSession::publish_ground_up(
    std::string_view id, std::uint64_t structure_generation,
    std::shared_ptr<const core::GroundUpLossCache> cache) {
  std::lock_guard<std::mutex> guard(mutex_);
  Book& book = book_or_throw(id);
  book.capture_claimed = false;
  if (book.structure_generation != structure_generation) return;  // stale capture
  set_ground_up_locked(book, std::move(cache));
  obs::TelemetryRegistry::global().counter("service.captures").increment();
}

void PortfolioSession::abandon_capture(std::string_view id) {
  std::lock_guard<std::mutex> guard(mutex_);
  Book& book = book_or_throw(id);
  book.capture_claimed = false;
}

PortfolioSession::Book& PortfolioSession::book_or_throw(std::string_view id) {
  auto it = books_.find(id);
  if (it == books_.end()) {
    throw std::invalid_argument("unknown portfolio '" + std::string(id) + "'");
  }
  return it->second;
}

const PortfolioSession::Book& PortfolioSession::book_or_throw(std::string_view id) const {
  auto it = books_.find(id);
  if (it == books_.end()) {
    throw std::invalid_argument("unknown portfolio '" + std::string(id) + "'");
  }
  return it->second;
}

void PortfolioSession::set_ground_up_locked(
    Book& book, std::shared_ptr<const core::GroundUpLossCache> cache) {
  if (book.ground_up != nullptr) ground_up_bytes_ -= book.ground_up->memory_bytes();
  book.ground_up = std::move(cache);
  if (book.ground_up != nullptr) ground_up_bytes_ += book.ground_up->memory_bytes();
  ground_up_gauge().set(static_cast<std::int64_t>(ground_up_bytes_));
}

}  // namespace are::service
