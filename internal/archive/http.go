package archive

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Server serves a Store over HTTP the way the real archives do: plain
// directory-listing HTML indexes plus the dump files themselves. It
// optionally simulates the publication delay measured in §2 of the
// paper (dump files become visible only PublishDelay after the dump
// interval ends), which is what makes live-mode polling meaningful.
type Server struct {
	Store *Store
	// PublishDelay delays a dump's visibility past the end of its
	// interval. Zero publishes immediately.
	PublishDelay time.Duration
	// Now lets tests and the live simulator control the clock;
	// defaults to time.Now.
	Now func() time.Time
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

func (s *Server) published(rel string, info os.FileInfo) bool {
	if s.PublishDelay == 0 {
		return true
	}
	// Derive the dump interval from the file name when possible.
	parts := strings.SplitN(strings.TrimPrefix(path.Clean("/"+rel), "/"), "/", 2)
	if len(parts) == 2 {
		if meta, err := ParsePath(parts[0], parts[1]); err == nil {
			return !s.now().Before(meta.Time.Add(meta.Duration + s.PublishDelay))
		}
	}
	return true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rel := path.Clean("/" + r.URL.Path)
	full := filepath.Join(s.Store.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	info, err := os.Stat(full)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if info.IsDir() {
		s.serveListing(w, rel, full)
		return
	}
	if !s.published(rel, info) {
		http.NotFound(w, r)
		return
	}
	f, err := os.Open(full)
	if err != nil {
		http.Error(w, "open failed", http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent (not io.Copy) so byte-range requests work: the
	// resilient fetcher resumes an interrupted dump transfer with a
	// Range header, exactly as against the real archives.
	http.ServeContent(w, r, "", info.ModTime(), f)
}

func (s *Server) serveListing(w http.ResponseWriter, rel, full string) {
	entries, err := os.ReadDir(full)
	if err != nil {
		http.Error(w, "read dir failed", http.StatusInternalServerError)
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		} else if !s.published(path.Join(rel, name), nil) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>Index of %s</title></head><body>\n", html.EscapeString(rel))
	fmt.Fprintf(w, "<h1>Index of %s</h1><pre>\n", html.EscapeString(rel))
	if rel != "/" {
		fmt.Fprint(w, "<a href=\"../\">../</a>\n")
	}
	for _, name := range names {
		fmt.Fprintf(w, "<a href=\"%s\">%s</a>\n", html.EscapeString(url.PathEscape(strings.TrimSuffix(name, "/"))+dirSlash(name)), html.EscapeString(name))
	}
	fmt.Fprint(w, "</pre></body></html>\n")
}

func dirSlash(name string) string {
	if strings.HasSuffix(name, "/") {
		return "/"
	}
	return ""
}

var hrefRE = regexp.MustCompile(`href="([^"]+)"`)

// Crawl walks an archive served over HTTP starting at baseURL (which
// must point at a project root, e.g. http://host/routeviews/) and
// returns meta-data for every dump file found. It mirrors the
// scraping the Broker performs against real archives.
func Crawl(client *http.Client, baseURL, project string) ([]DumpMeta, error) {
	if client == nil {
		client = http.DefaultClient
	}
	base, err := url.Parse(strings.TrimSuffix(baseURL, "/") + "/")
	if err != nil {
		return nil, fmt.Errorf("archive: bad base url: %w", err)
	}
	var out []DumpMeta
	var visit func(u *url.URL, depth int) error
	visit = func(u *url.URL, depth int) error {
		if depth > 8 {
			return nil
		}
		resp, err := client.Get(u.String())
		if err != nil {
			return fmt.Errorf("archive: crawl %s: %w", u, err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("archive: crawl read %s: %w", u, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("archive: crawl %s: status %d", u, resp.StatusCode)
		}
		for _, m := range hrefRE.FindAllStringSubmatch(string(body), -1) {
			href := m[1]
			if href == "../" || strings.HasPrefix(href, "/") || strings.Contains(href, "://") {
				continue
			}
			ref, err := url.Parse(href)
			if err != nil {
				continue
			}
			child := u.ResolveReference(ref)
			if strings.HasSuffix(href, "/") {
				if err := visit(child, depth+1); err != nil {
					return err
				}
				continue
			}
			rel := strings.TrimPrefix(child.Path, base.Path)
			meta, perr := ParsePath(project, rel)
			if perr != nil {
				continue
			}
			meta.URL = child.String()
			out = append(out, meta)
		}
		return nil
	}
	if err := visit(base, 0); err != nil {
		return nil, err
	}
	SortMetas(out)
	return out, nil
}
